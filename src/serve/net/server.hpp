// server.hpp — the network front end of ThermalService.
//
// ServeServer owns the listening socket and the threads that turn framed
// wire requests (net/frame.hpp + net/envelope.hpp) into calls on an
// existing ThermalService.  The service stays the single source of truth —
// the server adds exactly the concerns a wire adds:
//
//   * admission control — at most `max_inflight` requests queued or
//     executing; one past that is rejected immediately with a typed
//     `overloaded` reply (bounded memory and bounded latency instead of an
//     unbounded backlog);
//   * per-client fairness — admitted requests queue per connection and
//     workers pick round-robin across connections, so one client
//     pipelining a burst cannot starve another's single query;
//   * per-request deadlines — a request admitted with `deadline_ms > 0`
//     answers `deadline-exceeded` once its budget is spent (checked at
//     dispatch, and while waiting on session futures);
//   * graceful drain — drain() stops accepting connections, answers every
//     new request `shutting-down`, and returns once the admitted in-flight
//     requests have been answered (the daemon's SIGTERM path).
//
// Stats, metrics, and trace requests are control plane: readers answer
// them inline, bypassing admission, so an operator can watch an
// overloaded server.  They are also never traced themselves — spans
// describe query work, not the act of observing it.
//
// Threading: one listener (poll + wake pipe), one reader per connection
// (decode + admission + inline error/stats replies), `workers` dispatch
// threads (execute + reply).  Replies serialize on a per-connection write
// mutex; a reply to a vanished client is dropped silently.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/net/envelope.hpp"
#include "serve/net/socket.hpp"
#include "serve/service.hpp"

namespace liquid3d {

struct ServerParams {
  /// Dispatch threads executing admitted requests.
  std::size_t workers = 2;
  /// Bound on requests queued + executing; one more is rejected.
  std::size_t max_inflight = 8;
};

class ServeServer {
 public:
  /// The server borrows the service; the caller keeps it alive (and may
  /// keep querying it in-process — answers are the same object either way).
  explicit ServeServer(ThermalService& service, ServerParams params = {});
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens, and starts the listener/worker threads.
  void start(const Endpoint& endpoint);

  /// The endpoint actually bound (resolves an ephemeral port 0).
  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }

  /// Stops accepting connections, rejects new requests (`shutting-down`),
  /// and returns once every admitted request has been answered.
  void drain();

  /// Hard stop: drain admitted work, shut every connection down, join all
  /// threads.  Idempotent; the destructor calls it.
  void stop();

  /// Service counters plus the wire_* transport counters.
  [[nodiscard]] ServeStats stats() const;

  /// Prometheus-style text exposition: the global obs registry plus this
  /// server's ServeStats rendered as `liquid3d_serve_*` lines (exact
  /// counters, so a scrape can be asserted against a burst's totals).
  [[nodiscard]] std::string metrics_text() const;

 private:
  struct QueuedRequest {
    WireRequest request;
    std::chrono::steady_clock::time_point admitted;
    // Tracing context (zero when tracing is off): decode/admission spans
    // are recorded on the reader thread; dispatch/solve/encode spans are
    // recorded by the worker against the same trace_id/root.
    std::uint64_t trace_id = 0;
    std::uint32_t root_span = 0;
    std::uint64_t recv_ns = 0;      ///< request start (frame received)
    std::uint64_t admitted_ns = 0;  ///< admission decided (dispatch from here)
  };
  struct Connection {
    ~Connection();
    int fd = -1;
    std::mutex write_mu;            ///< serializes frames onto fd
    std::deque<QueuedRequest> pending;  ///< admitted, waiting for a worker
    std::size_t executing = 0;      ///< popped by a worker, not yet replied
    bool closed = false;            ///< reader exited; fd closes with *this
    std::thread reader;
  };

  void listener_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void worker_loop();
  /// Runs one admitted request and returns its encoded reply frame.
  std::string execute(QueuedRequest item);
  void send_response(const std::shared_ptr<Connection>& conn,
                     const WireResponse& response);
  void send_payload(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  void reap_locked();

  ThermalService& service_;
  const ServerParams params_;
  Endpoint endpoint_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread listener_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers: pending work or shutdown
  std::condition_variable cv_drain_;  ///< drain(): nothing left to answer
  std::vector<std::shared_ptr<Connection>> conns_;
  std::size_t rr_cursor_ = 0;  ///< round-robin position over conns_
  std::size_t inflight_ = 0;   ///< queued + executing (admission bound)
  std::size_t replying_ = 0;   ///< answered, reply frame not yet written
  bool draining_ = false;      ///< reject new requests
  bool stop_workers_ = false;  ///< workers exit once queues empty
  bool started_ = false;
  bool stopped_ = false;

  // Transport counters (ServeStats.wire_*).
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t timed_out_ = 0;
  std::size_t active_conns_ = 0;
  std::size_t queue_hwm_ = 0;         ///< lifetime (monotonic)
  std::size_t queue_hwm_window_ = 0;  ///< since last stats --reset-hwm
};

}  // namespace liquid3d
