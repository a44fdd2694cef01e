#include "serve/net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/net/frame.hpp"

namespace liquid3d {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

}  // namespace

ServeServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

ServeServer::ServeServer(ThermalService& service, ServerParams params)
    : service_(service), params_(params) {
  LIQUID3D_REQUIRE(params_.workers > 0, "ServeServer needs >= 1 worker");
  LIQUID3D_REQUIRE(params_.max_inflight > 0,
                   "ServeServer needs max_inflight >= 1");
}

ServeServer::~ServeServer() { stop(); }

void ServeServer::start(const Endpoint& endpoint) {
  LIQUID3D_REQUIRE(!started_, "ServeServer already started");
  listen_fd_ = listen_socket(endpoint);
  endpoint_ = bound_endpoint(listen_fd_, endpoint);
  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw WireError(WireErrorCode::kInternal, "pipe() failed");
  }
  started_ = true;
  listener_ = std::thread([this] { listener_loop(); });
  workers_.reserve(params_.workers);
  for (std::size_t i = 0; i < params_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ServeServer::listener_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // wake pipe: shutting down
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Connections are accepted even while draining: their requests get
      // typed shutting-down rejections from admission, which beats a
      // silent close for a client that connected just before the drain.
      ++active_conns_;
      conns_.push_back(conn);
      reap_locked();
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void ServeServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    std::optional<std::string> payload;
    try {
      payload = recv_frame(conn->fd);
    } catch (const WireError&) {
      // Torn frame, oversized prefix, or reset: the stream cannot be
      // resynchronized, so drop the connection — shutdown (not close; the
      // fd must outlive in-flight workers) makes the peer see EOF now
      // instead of at the next reap.
      ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }
    if (!payload) break;  // clean EOF
    const std::uint64_t recv_ns = obs::tracing_enabled() ? obs::now_ns() : 0;

    WireRequest request;
    try {
      request = decode_request(*payload);
    } catch (const std::exception& e) {
      // Envelope-level failure: this frame is lost but the stream is still
      // in sync — reply typed bad-request and keep serving.
      WireResponse resp;
      resp.id = peek_request_id(*payload);
      resp.payload = ErrorReply{WireErrorCode::kBadRequest, e.what()};
      send_response(conn, resp);
      continue;
    }

    // Control plane: stats/metrics/trace answer inline on this thread,
    // bypass admission, and are never traced themselves.
    if (const auto* sq = std::get_if<StatsQuery>(&request.payload)) {
      WireResponse resp;
      resp.id = request.id;
      ServeStats s = service_.stats();
      {
        std::lock_guard<std::mutex> lock(mu_);
        s.wire_accepted = accepted_;
        s.wire_rejected = rejected_;
        s.wire_timed_out = timed_out_;
        s.wire_connections = active_conns_;
        s.wire_queue_hwm = queue_hwm_;
        s.wire_queue_hwm_window = queue_hwm_window_;
        // Report-then-reset under one lock hold: no observation between
        // the snapshot and the reset can be lost.
        if (sq->reset_hwm) queue_hwm_window_ = 0;
      }
      resp.payload = s;
      send_response(conn, resp);
      continue;
    }
    if (std::holds_alternative<MetricsQuery>(request.payload)) {
      WireResponse resp;
      resp.id = request.id;
      resp.payload = MetricsAnswer{metrics_text()};
      send_response(conn, resp);
      continue;
    }
    if (const auto* tq = std::get_if<TraceQuery>(&request.payload)) {
      WireResponse resp;
      resp.id = request.id;
      resp.payload = TraceAnswer{obs::TraceRing::global().snapshot(
          static_cast<std::size_t>(tq->limit))};
      send_response(conn, resp);
      continue;
    }

    // Query plane: open the trace (decode already happened, so its span
    // is recorded post hoc against the frame-arrival stamp).
    std::uint64_t trace_id = 0;
    std::uint32_t root_span = 0;
    if (obs::tracing_enabled()) {
      trace_id = obs::next_trace_id();
      root_span = obs::next_span_id();
      obs::TraceRing::global().record(obs::TraceSpan{
          trace_id, obs::next_span_id(), root_span, "decode", recv_ns,
          obs::now_ns()});
    }

    WireErrorCode reject = WireErrorCode::kInternal;
    bool admitted = false;
    const std::uint64_t admit_start = trace_id != 0 ? obs::now_ns() : 0;
    std::uint64_t admitted_ns = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) {
        reject = WireErrorCode::kShuttingDown;
        ++rejected_;
      } else if (inflight_ >= params_.max_inflight) {
        reject = WireErrorCode::kOverloaded;
        ++rejected_;
      } else {
        admitted = true;
        ++accepted_;
        ++inflight_;
        queue_hwm_ = std::max(queue_hwm_, inflight_);
        queue_hwm_window_ = std::max(queue_hwm_window_, inflight_);
        QueuedRequest item{std::move(request), Clock::now()};
        item.trace_id = trace_id;
        item.root_span = root_span;
        item.recv_ns = recv_ns;
        if (trace_id != 0) item.admitted_ns = obs::now_ns();
        admitted_ns = item.admitted_ns;
        conn->pending.push_back(std::move(item));
      }
    }
    if (trace_id != 0) {
      obs::TraceRing::global().record(obs::TraceSpan{
          trace_id, obs::next_span_id(), root_span, "admission", admit_start,
          admitted ? admitted_ns : obs::now_ns()});
      if (!admitted) {
        // Rejected requests still close their root span.
        obs::TraceRing::global().record(obs::TraceSpan{
            trace_id, root_span, 0, "request", recv_ns, obs::now_ns()});
      }
    }
    if (admitted) {
      cv_work_.notify_one();
    } else {
      WireResponse resp;
      resp.id = request.id;
      resp.payload = ErrorReply{
          reject, reject == WireErrorCode::kOverloaded
                      ? "admission queue full (" +
                            std::to_string(params_.max_inflight) +
                            " in flight) — retry later"
                      : "server is draining — not admitting new requests"};
      send_response(conn, resp);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn->closed = true;
    --active_conns_;
    if (conn->pending.empty() && conn->executing == 0) {
      // Nothing left to answer: acknowledge the peer's close right away
      // (a half-closed pipelining client is waiting for our EOF).
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  // Admitted requests from this client still run (their replies will be
  // dropped on the closed socket); workers may be waiting on them.
  cv_work_.notify_all();
}

void ServeServer::worker_loop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    QueuedRequest item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] {
        if (stop_workers_) return true;
        for (const auto& c : conns_) {
          if (!c->pending.empty()) return true;
        }
        return false;
      });
      // Fair pick: next non-empty connection after the last served one.
      const std::size_t n = conns_.size();
      for (std::size_t i = 0; i < n && !conn; ++i) {
        const std::size_t at = (rr_cursor_ + 1 + i) % n;
        if (!conns_[at]->pending.empty()) {
          conn = conns_[at];
          rr_cursor_ = at;
        }
      }
      if (!conn) {
        if (stop_workers_) return;
        continue;
      }
      item = std::move(conn->pending.front());
      conn->pending.pop_front();
      ++conn->executing;
    }
    const std::string reply = execute(std::move(item));
    {
      // The answer exists: free the admission slot before the write, so a
      // client that reads this reply and sends its next request at once
      // never finds its own finished request still counted in flight.
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      ++replying_;
    }
    send_payload(conn, reply);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --conn->executing;
      --replying_;
      if (conn->closed && conn->pending.empty() && conn->executing == 0) {
        // That was the final reply owed to a departed client.
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    cv_drain_.notify_all();
  }
}

std::string ServeServer::execute(QueuedRequest item) {
  WireResponse resp;
  resp.id = item.request.id;
  const double deadline_ms = item.request.deadline_ms;
  const auto budget_left = [&]() -> double {
    return deadline_ms - elapsed_ms(item.admitted);
  };
  // Tracing context opened by the reader (zero when tracing was off at
  // admission).  The dispatch span is the queue wait: admission decided
  // to worker pickup.
  const std::uint64_t trace_id = item.trace_id;
  if (trace_id != 0) {
    obs::TraceRing::global().record(obs::TraceSpan{
        trace_id, obs::next_span_id(), item.root_span, "dispatch",
        item.admitted_ns, obs::now_ns()});
  }
  const char* solve_stage = "solve";
  const std::uint64_t solve_start = trace_id != 0 ? obs::now_ns() : 0;
  try {
    if (deadline_ms > 0.0 && budget_left() <= 0.0) {
      throw WireError(WireErrorCode::kDeadlineExceeded,
                      "deadline of " + std::to_string(deadline_ms) +
                          " ms passed before dispatch");
    }
    if (const auto* steady = std::get_if<SteadyQuery>(&item.request.payload)) {
      // Synchronous; the deadline gates dispatch (a steady answer is
      // microseconds-to-milliseconds, not worth a cancellation channel).
      SteadyAnswer answer = service_.steady(*steady);
      solve_stage = answer.used_rom ? "solve/rom" : "solve/full";
      resp.payload = std::move(answer);
    } else {
      std::future<SessionOutcome> future;
      if (const auto* whatif =
              std::get_if<WhatIfQuery>(&item.request.payload)) {
        future = service_.what_if(*whatif);
      } else {
        future = service_.replay(std::get<ReplayQuery>(item.request.payload));
      }
      if (deadline_ms > 0.0) {
        const double left = budget_left();
        if (left <= 0.0 ||
            future.wait_for(std::chrono::duration<double, std::milli>(left)) !=
                std::future_status::ready) {
          // The session still completes in the background (it cannot be
          // cancelled mid-solve); only the reply is a timeout.
          throw WireError(WireErrorCode::kDeadlineExceeded,
                          "deadline of " + std::to_string(deadline_ms) +
                              " ms passed while the session ran");
        }
      }
      resp.payload = future.get();
      solve_stage = "solve/session";
    }
  } catch (const WireError& e) {
    if (e.code() == WireErrorCode::kDeadlineExceeded) {
      std::lock_guard<std::mutex> lock(mu_);
      ++timed_out_;
    }
    resp.payload = ErrorReply{e.code(), e.what()};
  } catch (const ConfigError& e) {
    resp.payload = ErrorReply{WireErrorCode::kBadRequest, e.what()};
  } catch (const SolverError& e) {
    resp.payload = ErrorReply{WireErrorCode::kSolver, e.what()};
  } catch (const std::exception& e) {
    resp.payload = ErrorReply{WireErrorCode::kInternal, e.what()};
  }
  if (trace_id != 0) {
    obs::TraceRing::global().record(obs::TraceSpan{
        trace_id, obs::next_span_id(), item.root_span, solve_stage,
        solve_start, obs::now_ns()});
  }
  // Encode before recording the final spans, and record them before the
  // frame leaves: the moment the client sees the answer, a follow-up
  // `trace` request must find the complete span tree (the daemon-smoke
  // scrape depends on this).  The socket write itself is untraced.
  const std::uint64_t encode_start = trace_id != 0 ? obs::now_ns() : 0;
  std::string payload = encode_response(resp);
  if (trace_id != 0) {
    const std::uint64_t end = obs::now_ns();
    obs::TraceRing::global().record(obs::TraceSpan{
        trace_id, obs::next_span_id(), item.root_span, "encode", encode_start,
        end});
    obs::TraceRing::global().record(obs::TraceSpan{
        trace_id, item.root_span, 0, "request", item.recv_ns, end});
  }
  return payload;
}

void ServeServer::send_response(const std::shared_ptr<Connection>& conn,
                                const WireResponse& response) {
  send_payload(conn, encode_response(response));
}

void ServeServer::send_payload(const std::shared_ptr<Connection>& conn,
                               const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  try {
    send_frame(conn->fd, payload);
  } catch (const std::exception&) {
    // Client vanished mid-exchange (or the reply could not be framed);
    // nothing to deliver it to — the connection is already doomed.
  }
}

void ServeServer::reap_locked() {
  for (std::size_t i = 0; i < conns_.size();) {
    auto& c = conns_[i];
    if (c->closed && c->pending.empty() && c->executing == 0) {
      if (c->reader.joinable()) c->reader.join();
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      if (rr_cursor_ >= conns_.size()) rr_cursor_ = 0;
    } else {
      ++i;
    }
  }
}

void ServeServer::drain() {
  if (!started_) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    cv_drain_.wait(lock, [this] { return inflight_ == 0 && replying_ == 0; });
  }
}

void ServeServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  drain();
  // Wake and join the listener before taking the connection snapshot: a
  // connection accepted after the snapshot would get a reader thread that
  // is never joined (and clearing conns_ would then destroy a joinable
  // std::thread).
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (listener_.joinable()) listener_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_workers_ = true;
    conns = conns_;
    // Unblock every reader: shut the sockets down (fds close with the
    // Connection objects, after the last worker reply).
    for (const auto& c : conns_) ::shutdown(c->fd, SHUT_RDWR);
  }
  cv_work_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Join readers without mu_ held — an exiting reader takes mu_ to mark
  // itself closed.
  for (const auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

ServeStats ServeServer::stats() const {
  ServeStats s = service_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  s.wire_accepted = accepted_;
  s.wire_rejected = rejected_;
  s.wire_timed_out = timed_out_;
  s.wire_connections = active_conns_;
  s.wire_queue_hwm = queue_hwm_;
  s.wire_queue_hwm_window = queue_hwm_window_;
  return s;
}

std::string ServeServer::metrics_text() const {
  const ServeStats s = stats();
  std::string out = obs::Registry::global().prometheus();
  const auto counter = [&out](const char* name, std::size_t v) {
    out += "liquid3d_serve_";
    out += name;
    out += "_total ";
    out += std::to_string(v);
    out += '\n';
  };
  const auto gauge = [&out](const char* name, std::size_t v) {
    out += "liquid3d_serve_";
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  counter("steady_queries", s.steady_queries);
  counter("rom_hits", s.rom_hits);
  counter("rom_builds", s.rom_builds);
  counter("rom_fallbacks", s.rom_fallbacks);
  counter("rom_evictions", s.rom_evictions);
  counter("full_solves", s.full_solves);
  counter("model_evictions", s.model_evictions);
  counter("session_queries", s.session_queries);
  counter("batches", s.batches);
  counter("batched_sessions", s.batched_sessions);
  counter("solo_fallbacks", s.solo_fallbacks);
  counter("wire_accepted", s.wire_accepted);
  counter("wire_rejected", s.wire_rejected);
  counter("wire_timed_out", s.wire_timed_out);
  gauge("max_batch", s.max_batch);
  gauge("wire_connections", s.wire_connections);
  gauge("wire_queue_hwm", s.wire_queue_hwm);
  gauge("wire_queue_hwm_window", s.wire_queue_hwm_window);
  return out;
}

}  // namespace liquid3d
