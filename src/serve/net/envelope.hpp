// envelope.hpp — the versioned, serializable request/response envelope of
// the thermal service.
//
// PR 8 gave the service three ad-hoc in-process query structs; this header
// is the contract that lets them leave the process.  The existing structs
// (SteadyQuery, WhatIfQuery, ReplayQuery, SteadyAnswer, SessionOutcome,
// ServeStats — serve/query.hpp) stay the payload types, so every in-process
// caller keeps compiling; the envelope adds what a wire needs and nothing
// else:
//
//   * a version + tag header line, so an old client talking to a new server
//     (or vice versa) gets a typed error instead of a misparse;
//   * a correlation id, so responses can come back out of order over one
//     pipelined connection;
//   * a per-request deadline, so a slow solve cannot hold a caller hostage;
//   * a typed error reply (ErrorReply), the wire image of the exception the
//     in-process call would have thrown, plus the transport-only outcomes
//     (overloaded, shutting down, deadline exceeded).
//
// Serialization is line-oriented text: a `liquid3d-serve <version> <tag>`
// header, then one `<key> <value>` line per field.  Doubles are printed
// shortest round-trip (`std::to_chars`): the fewest digits that parse back
// to the same bits, so a peer printing %.17g (geom/stack_spec, sim/report,
// and this codec before) decodes identically.  Free-form strings and
// embedded stack specs are percent-encoded into single whitespace-free
// tokens (the stack spec by encode_stack_spec, everything else by the same
// %XX escape).  Decoding is strict: an unknown version, tag, or key, a flag
// other than 0 or 1, and any malformed value throw ConfigError naming the
// offender — version 1 never silently ignores input.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "obs/trace.hpp"
#include "serve/query.hpp"

namespace liquid3d {

/// Wire-protocol version this build speaks.  Bump when a key changes
/// meaning or a new key must not be ignored by old peers.  Purely
/// additive control-plane tags/keys (metrics, trace, stats reset_hwm)
/// do NOT bump the version: an old server answers them with a typed
/// bad-request — strict decoding already guarantees they can never be
/// silently ignored — and everything a version-1 peer could say before
/// still means the same thing.
inline constexpr std::uint32_t kServeWireVersion = 1;

/// Payload cap for one frame (guards both peers against a hostile or
/// corrupt length prefix; see net/frame.hpp).
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

/// Cap on a steady request's `block_watts` layer index, far past any stack
/// a thermal model is built for (the Niagara presets stop at 8 layers).
/// The index sizes the decoded power map, so it is bounded before use.
inline constexpr std::size_t kMaxWireLayers = 1024;

/// Request for the service's counter snapshot.  With `reset_hwm` set the
/// server reports the current windowed queue high-water mark, then resets
/// the window (report-then-reset, so no observation is lost).
struct StatsQuery {
  bool reset_hwm = false;
};

/// Request for the Prometheus-style metrics exposition (`serve_ctl
/// metrics`).  Answered inline on the reader thread, like stats.
struct MetricsQuery {};

/// Request for a dump of recent trace spans; `limit` == 0 means all
/// retained spans.
struct TraceQuery {
  std::uint64_t limit = 0;
};

/// Metrics exposition text (see docs/observability.md for the format).
struct MetricsAnswer {
  std::string text;
};

/// Recent trace spans, oldest first.
struct TraceAnswer {
  std::vector<obs::TraceSpan> spans;
};

/// How a request can fail, as carried on the wire and surfaced to client
/// code.  The first four are transport outcomes; kSolver/kBadRequest mirror
/// the exception the in-process call would have thrown (common/error.hpp).
enum class WireErrorCode {
  kBadRequest,        ///< malformed envelope or ConfigError from the service
  kOverloaded,        ///< admission queue full — retry later, nothing ran
  kDeadlineExceeded,  ///< the request's deadline passed before an answer
  kShuttingDown,      ///< server draining — nothing new is admitted
  kSolver,            ///< SolverError from the service (retriable outcome)
  kInternal,          ///< unexpected server-side exception
  kProtocol,          ///< client-local: malformed frame/envelope from peer
  kDisconnected,      ///< client-local: connection closed mid-exchange
};

[[nodiscard]] const char* to_string(WireErrorCode code);

/// Typed client-side failure: transport outcomes and protocol violations.
/// (Server-reported ConfigError/SolverError re-throw as those types so wire
/// callers handle errors exactly like in-process callers.)
class WireError : public std::runtime_error {
 public:
  WireError(WireErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

/// The error reply payload (the wire image of an exception).
struct ErrorReply {
  WireErrorCode code = WireErrorCode::kInternal;
  std::string message;
};

/// One request envelope.  `id` is chosen by the client and echoed in the
/// response; `deadline_ms` is a relative time budget (0 = none) measured
/// from server-side admission.
struct WireRequest {
  std::uint64_t id = 0;
  double deadline_ms = 0.0;
  std::variant<SteadyQuery, WhatIfQuery, ReplayQuery, StatsQuery,
               MetricsQuery, TraceQuery>
      payload;
};

/// One response envelope; `id` echoes the request it answers (0 when the
/// request was too malformed to recover an id from).
struct WireResponse {
  std::uint64_t id = 0;
  std::variant<SteadyAnswer, SessionOutcome, ServeStats, ErrorReply,
               MetricsAnswer, TraceAnswer>
      payload;
};

[[nodiscard]] std::string encode_request(const WireRequest& request);
/// The same encoding straight from a payload (any WireRequest alternative),
/// without copying it into a WireRequest first.
template <class Query>
[[nodiscard]] std::string encode_request(std::uint64_t id, double deadline_ms,
                                         const Query& query);
[[nodiscard]] std::string encode_response(const WireResponse& response);

/// Strict decoders; throw ConfigError naming the offending line/key.
[[nodiscard]] WireRequest decode_request(const std::string& text);
[[nodiscard]] WireResponse decode_response(const std::string& text);

/// Best-effort id of a request that failed to decode, so the error reply
/// can still be correlated (0 when even the id line is unreadable).
[[nodiscard]] std::uint64_t peek_request_id(const std::string& text);

}  // namespace liquid3d
