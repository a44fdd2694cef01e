#include "serve/net/client.hpp"

#include <unistd.h>

#include <utility>

#include "common/error.hpp"
#include "serve/net/frame.hpp"

namespace liquid3d {

ServeClient::ServeClient(const Endpoint& endpoint)
    : fd_(connect_socket(endpoint)) {}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

template <class Answer, class Query>
Answer ServeClient::call(const Query& query, const char* name) {
  const std::uint64_t id = next_id_++;
  send_frame(fd_, encode_request(id, deadline_ms_, query));
  const std::optional<std::string> payload = recv_frame(fd_);
  if (!payload) {
    throw WireError(WireErrorCode::kDisconnected,
                    "server closed the connection before replying");
  }
  WireResponse response;
  try {
    response = decode_response(*payload);
  } catch (const std::exception& e) {
    throw WireError(WireErrorCode::kProtocol,
                    std::string("malformed response: ") + e.what());
  }
  if (response.id != id) {
    throw WireError(WireErrorCode::kProtocol,
                    "response id " + std::to_string(response.id) +
                        " does not match request id " + std::to_string(id));
  }
  if (const auto* error = std::get_if<ErrorReply>(&response.payload)) {
    // Restore the in-process exception contract for service-side failures;
    // transport-only outcomes stay WireError.
    switch (error->code) {
      case WireErrorCode::kBadRequest:
        throw ConfigError(error->message);
      case WireErrorCode::kSolver:
        throw SolverError(error->message);
      default:
        throw WireError(error->code, error->message);
    }
  }
  auto* answer = std::get_if<Answer>(&response.payload);
  if (answer == nullptr) {
    throw WireError(WireErrorCode::kProtocol,
                    std::string(name) +
                        " query answered with the wrong payload type");
  }
  return std::move(*answer);
}

SteadyAnswer ServeClient::steady(const SteadyQuery& query) {
  return call<SteadyAnswer>(query, "steady");
}

SessionOutcome ServeClient::what_if(const WhatIfQuery& query) {
  return call<SessionOutcome>(query, "what-if");
}

SessionOutcome ServeClient::replay(const ReplayQuery& query) {
  return call<SessionOutcome>(query, "replay");
}

ServeStats ServeClient::stats(bool reset_hwm) {
  return call<ServeStats>(StatsQuery{reset_hwm}, "stats");
}

std::string ServeClient::metrics() {
  return call<MetricsAnswer>(MetricsQuery{}, "metrics").text;
}

std::vector<obs::TraceSpan> ServeClient::trace(std::uint64_t limit) {
  return call<TraceAnswer>(TraceQuery{limit}, "trace").spans;
}

}  // namespace liquid3d
