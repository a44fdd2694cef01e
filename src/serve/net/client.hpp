// client.hpp — ServeClient: the wire twin of ThermalService.
//
// One blocking request/response per call over a single framed connection,
// mirroring the in-process API call for call:
//
//   ThermalService            ServeClient
//   service.steady(q)         client.steady(q)
//   service.what_if(q).get()  client.what_if(q)
//   service.replay(q).get()   client.replay(q)
//   service.stats()           client.stats()
//
// Answers are bit-identical to the in-process calls (the envelope prints
// every double shortest round-trip, `std::to_chars`), so a caller can
// switch between the two backends without re-validating anything.
//
// Error mapping restores the in-process contract: a server-side
// ConfigError/SolverError re-throws here as that same type, so `catch
// (const ConfigError&)` works unchanged over the wire.  Transport-only
// outcomes (overloaded, shutting-down, deadline-exceeded, protocol
// violations, disconnects) throw WireError with the matching code —
// failures that cannot happen in-process stay a distinct type.
#pragma once

#include <cstdint>
#include <string>

#include "serve/net/envelope.hpp"
#include "serve/net/socket.hpp"

namespace liquid3d {

class ServeClient {
 public:
  /// Connects immediately; throws WireError{kDisconnected} on refusal.
  explicit ServeClient(const Endpoint& endpoint);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Per-request deadline [ms] sent with every query; 0 = none.  Measured
  /// server-side from admission.
  void set_deadline_ms(double ms) { deadline_ms_ = ms; }

  [[nodiscard]] SteadyAnswer steady(const SteadyQuery& query);
  [[nodiscard]] SessionOutcome what_if(const WhatIfQuery& query);
  [[nodiscard]] SessionOutcome replay(const ReplayQuery& query);
  /// With reset_hwm the server reports the windowed queue high-water
  /// mark, then resets the window (report-then-reset).
  [[nodiscard]] ServeStats stats(bool reset_hwm = false);
  /// Prometheus-style metrics exposition text.
  [[nodiscard]] std::string metrics();
  /// Recent trace spans, oldest first; limit == 0 means all retained.
  [[nodiscard]] std::vector<obs::TraceSpan> trace(std::uint64_t limit = 0);

 private:
  /// One request/response exchange; returns the `Answer` alternative of
  /// the reply (`name` labels a wrong-type reply in the WireError).
  template <class Answer, class Query>
  [[nodiscard]] Answer call(const Query& query, const char* name);

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  double deadline_ms_ = 0.0;
};

}  // namespace liquid3d
