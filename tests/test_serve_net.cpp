// The thermal service's wire transport (serve/net/): framing, the server's
// admission/fairness/deadline/drain behaviour, and the client library.
// Contracts under test:
//
//   * wire answers are bit-identical to in-process calls for all three
//     query families (the envelope round-trips every double exactly);
//   * protocol edge cases — torn frames, oversized length prefixes,
//     unknown versions/tags, mid-request disconnects — yield typed errors
//     on the offending connection and the server keeps serving others;
//   * admission control rejects past max_inflight with `overloaded`
//     instead of queueing without bound; drain answers `shutting-down`;
//   * per-request deadlines answer `deadline-exceeded`;
//   * a single worker round-robins across connections, so a pipelining
//     client cannot starve a one-query client.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "serve/net/client.hpp"
#include "serve/net/frame.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"
#include "sim/session.hpp"

namespace liquid3d {
namespace {

Endpoint loopback() { return parse_endpoint("127.0.0.1:0", "test"); }

WhatIfQuery small_whatif(std::uint64_t seed, double duration_s = 2.0) {
  WhatIfQuery q;
  q.scenario = "talb-var";
  q.benchmark = "Web-med";
  q.duration_s = duration_s;
  q.seed = seed;
  q.grid_rows = 8;
  q.grid_cols = 9;
  return q;
}

SteadyQuery small_steady() {
  SteadyQuery q;
  q.config.cooling = CoolingMode::kLiquidMax;
  q.config.layer_pairs = 1;
  q.config.thermal.grid_rows = 8;
  q.config.thermal.grid_cols = 9;
  q.core_watts = 3.0;
  return q;
}

void expect_bit_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.hotspot_percent, b.hotspot_percent);
  EXPECT_EQ(a.hotspot_max_sample, b.hotspot_max_sample);
  EXPECT_EQ(a.above_target_percent, b.above_target_percent);
  EXPECT_EQ(a.spatial_gradient_percent, b.spatial_gradient_percent);
  EXPECT_EQ(a.thermal_cycles_per_1000, b.thermal_cycles_per_1000);
  EXPECT_EQ(a.avg_tmax, b.avg_tmax);
  EXPECT_EQ(a.chip_energy_j, b.chip_energy_j);
  EXPECT_EQ(a.pump_energy_j, b.pump_energy_j);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.throughput_per_s, b.throughput_per_s);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.pump_transitions, b.pump_transitions);
  EXPECT_EQ(a.valve_transitions, b.valve_transitions);
  EXPECT_EQ(a.avg_flow_skew, b.avg_flow_skew);
  EXPECT_EQ(a.predictor_rebuilds, b.predictor_rebuilds);
  EXPECT_EQ(a.forecast_rmse, b.forecast_rmse);
  EXPECT_EQ(a.avg_pump_setting, b.avg_pump_setting);
}

/// Service + started server on an ephemeral loopback port.
struct Fixture {
  explicit Fixture(ServerParams server_params = {}, ServeParams params = {})
      : service(params), server(service, server_params) {
    server.start(loopback());
  }
  ThermalService service;
  ServeServer server;
};

// -- frame layer --------------------------------------------------------------

struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  int a = -1;
  int b = -1;
};

TEST(ServeFrame, RoundTripsAndCleanEof) {
  SocketPair pair;
  send_frame(pair.a, "hello");
  send_frame(pair.a, "");  // empty payloads are legal frames
  auto first = recv_frame(pair.b);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "hello");
  auto second = recv_frame(pair.b);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->empty());
  ::close(pair.a);
  pair.a = -1;
  EXPECT_FALSE(recv_frame(pair.b).has_value());  // EOF at a frame boundary
}

TEST(ServeFrame, TornFrameIsDisconnectNotEof) {
  SocketPair pair;
  // Prefix promises 100 bytes; only 3 arrive before the close.
  const char prefix[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(pair.a, prefix, 4, 0), 4);
  ASSERT_EQ(::send(pair.a, "abc", 3, 0), 3);
  ::close(pair.a);
  pair.a = -1;
  try {
    (void)recv_frame(pair.b);
    FAIL() << "torn frame must throw";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kDisconnected);
  }
}

TEST(ServeFrame, OversizedLengthPrefixIsProtocolError) {
  SocketPair pair;
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(pair.a, prefix, 4, 0), 4);
  try {
    (void)recv_frame(pair.b);
    FAIL() << "oversized prefix must throw";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kProtocol);
  }
}

// -- bit identity across the wire ---------------------------------------------

TEST(ServeNet, SteadyAnswerBitIdenticalToInProcess) {
  Fixture fx;
  const SteadyQuery q = small_steady();
  const SteadyAnswer local = fx.service.steady(q);

  ServeClient client(fx.server.endpoint());
  const SteadyAnswer wire = client.steady(q);
  EXPECT_EQ(wire.t_max_c, local.t_max_c);
  EXPECT_EQ(wire.layer_max_c, local.layer_max_c);
  EXPECT_EQ(wire.used_rom, local.used_rom);
  EXPECT_EQ(wire.estimated_error_c, local.estimated_error_c);
  EXPECT_EQ(wire.certified_error_c, local.certified_error_c);
  EXPECT_EQ(wire.rom_dimension, local.rom_dimension);
}

TEST(ServeNet, WhatIfAnswerBitIdenticalToInProcess) {
  Fixture fx;
  const WhatIfQuery q = small_whatif(11);
  const SessionOutcome local = fx.service.what_if(q).get();

  ServeClient client(fx.server.endpoint());
  const SessionOutcome wire = client.what_if(q);
  expect_bit_identical(wire.result, local.result);
  EXPECT_TRUE(wire.trace.empty());
}

TEST(ServeNet, ReplayAnswerBitIdenticalToInProcessIncludingTrace) {
  Fixture fx;
  ReplayQuery q;
  q.base = small_whatif(5);
  q.phases.push_back({SimTime::from_s(1), 0.5});
  q.trace_period_s = 0.5;
  const SessionOutcome local = fx.service.replay(q).get();

  ServeClient client(fx.server.endpoint());
  const SessionOutcome wire = client.replay(q);
  expect_bit_identical(wire.result, local.result);
  ASSERT_EQ(wire.trace.size(), local.trace.size());
  for (std::size_t i = 0; i < wire.trace.size(); ++i) {
    EXPECT_EQ(wire.trace[i].now.as_ms(), local.trace[i].now.as_ms());
    EXPECT_EQ(wire.trace[i].tmax, local.trace[i].tmax);
    EXPECT_EQ(wire.trace[i].forecast, local.trace[i].forecast);
    EXPECT_EQ(wire.trace[i].pump_setting, local.trace[i].pump_setting);
    EXPECT_EQ(wire.trace[i].flow_ml_per_min, local.trace[i].flow_ml_per_min);
    EXPECT_EQ(wire.trace[i].chip_watts, local.trace[i].chip_watts);
    EXPECT_EQ(wire.trace[i].pump_watts, local.trace[i].pump_watts);
    EXPECT_EQ(wire.trace[i].mean_busy, local.trace[i].mean_busy);
    EXPECT_EQ(wire.trace[i].queued_threads, local.trace[i].queued_threads);
  }
}

// -- error taxonomy across the wire -------------------------------------------

TEST(ServeNet, ServerSideConfigErrorRethrowsAsConfigError) {
  Fixture fx;
  ServeClient client(fx.server.endpoint());
  WhatIfQuery q = small_whatif(1);
  q.scenario = "no-such-scenario";
  EXPECT_THROW((void)client.what_if(q), ConfigError);
  // The connection survives a bad request.
  EXPECT_EQ(client.steady(small_steady()).t_max_c,
            fx.service.steady(small_steady()).t_max_c);
}

TEST(ServeNet, MalformedEnvelopeGetsTypedReplyAndServerKeepsServing) {
  Fixture fx;
  const int fd = connect_socket(fx.server.endpoint());
  send_frame(fd, "liquid3d-serve 999 steady\nid 77\n");  // unsupported version
  const auto reply = recv_frame(fd);
  ASSERT_TRUE(reply.has_value());
  const WireResponse response = decode_response(*reply);
  EXPECT_EQ(response.id, 77u);  // salvaged by peek_request_id
  const auto& error = std::get<ErrorReply>(response.payload);
  EXPECT_EQ(error.code, WireErrorCode::kBadRequest);

  // Same connection still serves well-formed requests...
  send_frame(fd, "liquid3d-serve 1 bogus-tag\nid 78\n");
  const auto reply2 = recv_frame(fd);
  ASSERT_TRUE(reply2.has_value());
  EXPECT_EQ(std::get<ErrorReply>(decode_response(*reply2).payload).code,
            WireErrorCode::kBadRequest);
  ::close(fd);

  // ...and so does the rest of the server.
  ServeClient client(fx.server.endpoint());
  EXPECT_GT(client.steady(small_steady()).t_max_c, 0.0);
}

TEST(ServeNet, GridPastTheFactorCapGetsATypedBadRequest) {
  // A grid whose LU band would pass kMaxFactorBytes — 200 x 500 on 2 layers
  // needs 3.2 GB, 2^40 rows overflows the size in 64-bit arithmetic — is a
  // malformed query: the model rejects it before allocating, and the
  // server keeps serving.
  Fixture fx;
  const int fd = connect_socket(fx.server.endpoint());
  std::uint64_t id = 90;
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{200, 500},
                                   {std::size_t{1} << 40, 9}}) {
    SCOPED_TRACE(testing::Message() << rows << " x " << cols);
    SteadyQuery q = small_steady();
    q.config.thermal.grid_rows = rows;
    q.config.thermal.grid_cols = cols;
    send_frame(fd, encode_request(++id, 0.0, q));
    const auto reply = recv_frame(fd);
    ASSERT_TRUE(reply.has_value());
    const WireResponse response = decode_response(*reply);
    EXPECT_EQ(response.id, id);
    EXPECT_EQ(std::get<ErrorReply>(response.payload).code, WireErrorCode::kBadRequest);
  }
  send_frame(fd, encode_request(++id, 0.0, small_steady()));
  const auto reply = recv_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<SteadyAnswer>(decode_response(*reply).payload).t_max_c,
            fx.service.steady(small_steady()).t_max_c);
  ::close(fd);
}

TEST(ServeNet, OversizedPrefixDropsConnectionButServerKeepsServing) {
  Fixture fx;
  const int fd = connect_socket(fx.server.endpoint());
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, prefix, 4, MSG_NOSIGNAL), 4);
  // The server cannot resynchronize after a bad length: it must drop this
  // connection (EOF from our side of it) rather than reply.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  ServeClient client(fx.server.endpoint());
  EXPECT_GT(client.steady(small_steady()).t_max_c, 0.0);
}

TEST(ServeNet, MidRequestDisconnectLeavesServerServing) {
  Fixture fx;
  {
    const int fd = connect_socket(fx.server.endpoint());
    WireRequest request;
    request.id = 1;
    request.payload = small_whatif(3);
    send_frame(fd, encode_request(request));
    ::close(fd);  // vanish before the answer
  }
  // The abandoned session still runs to completion server-side; the server
  // swallows the undeliverable reply and serves the next client.
  ServeClient client(fx.server.endpoint());
  const SessionOutcome outcome = client.what_if(small_whatif(4));
  EXPECT_GT(outcome.result.avg_tmax, 0.0);
  fx.service.wait_idle();
}

TEST(ServeNet, StopRacesIncomingConnectionsCleanly) {
  // A client connecting in a tight loop while stop() runs: every
  // connection the listener accepted must have its reader joined before
  // the connection list is cleared (a missed one would std::terminate).
  // Each round stops the server at a different point of the client's loop.
  for (int round = 0; round < 100; ++round) {
    Fixture fx;
    const Endpoint endpoint = fx.server.endpoint();
    std::atomic<bool> stopped{false};
    std::atomic<int> connects{0};
    std::thread client([&] {
      // Fewer connects than the listen backlog (64): the client outpaces
      // the listener, and a connect into a full backlog would block on SYN
      // retransmission.
      while (!stopped.load() && connects.load() < 48) {
        try {
          ::close(connect_socket(endpoint));
        } catch (const WireError&) {
          // Refused once the listener is gone.
        }
        ++connects;
      }
    });
    while (connects.load() < 1 + round % 40) std::this_thread::yield();
    fx.server.stop();
    stopped = true;
    client.join();
  }
}

// -- admission, deadlines, drain, fairness ------------------------------------

/// Polls the server's stats until `pred` holds (bounded wait).
template <class Pred>
void await(const ServeServer& server, Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred(server.stats())) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "server never reached the awaited state";
}

TEST(ServeNet, OverloadRejectsWithTypedErrorNotQueueing) {
  ServerParams params;
  params.workers = 1;
  params.max_inflight = 1;
  Fixture fx(params);

  // Fill the single in-flight slot with a slow what-if...
  std::thread slow([&] {
    ServeClient client(fx.server.endpoint());
    (void)client.what_if(small_whatif(1, /*duration_s=*/60.0));
  });
  await(fx.server, [](const ServeStats& s) { return s.wire_accepted >= 1; });

  // ...then the next request must be rejected, typed, immediately.
  ServeClient client(fx.server.endpoint());
  try {
    (void)client.steady(small_steady());
    FAIL() << "expected overloaded rejection";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kOverloaded);
  }
  slow.join();

  const ServeStats stats = fx.server.stats();
  EXPECT_EQ(stats.wire_rejected, 1u);
  EXPECT_EQ(stats.wire_queue_hwm, 1u);
  // After the burst drains, the slot frees up again.
  EXPECT_GT(client.steady(small_steady()).t_max_c, 0.0);
}

TEST(ServeNet, DeadlineExceededIsTypedAndCounted) {
  Fixture fx;
  ServeClient client(fx.server.endpoint());
  client.set_deadline_ms(1.0);  // a 60 s cell cannot finish in 1 ms
  try {
    (void)client.what_if(small_whatif(2, /*duration_s=*/60.0));
    FAIL() << "expected deadline-exceeded";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(fx.server.stats().wire_timed_out, 1u);
  fx.service.wait_idle();  // the abandoned session still completes

  client.set_deadline_ms(0.0);
  EXPECT_GT(client.steady(small_steady()).t_max_c, 0.0);
}

TEST(ServeNet, DrainRejectsNewWorkAndFinishesInFlight) {
  ServerParams params;
  params.workers = 2;
  Fixture fx(params);

  std::atomic<bool> answered{false};
  std::thread inflight([&] {
    ServeClient client(fx.server.endpoint());
    const SessionOutcome outcome = client.what_if(small_whatif(1, 30.0));
    EXPECT_GT(outcome.result.avg_tmax, 0.0);
    answered = true;
  });
  await(fx.server, [](const ServeStats& s) { return s.wire_accepted >= 1; });

  // A client connected before the drain: its next request is rejected typed.
  ServeClient early(fx.server.endpoint());
  std::thread drainer([&] { fx.server.drain(); });
  await(fx.server, [](const ServeStats&) { return true; });
  // drain() blocks until the in-flight answer lands; poke from here.
  for (;;) {
    try {
      (void)early.steady(small_steady());
      // Raced ahead of the drain flag; retry until the drain is visible.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kShuttingDown);
      break;
    }
  }
  drainer.join();
  inflight.join();
  EXPECT_TRUE(answered.load());  // drain waited for the admitted request
  EXPECT_GE(fx.server.stats().wire_rejected, 1u);
}

TEST(ServeNet, SingleWorkerRoundRobinsAcrossConnections) {
  ServerParams params;
  params.workers = 1;
  params.max_inflight = 8;
  Fixture fx(params);

  // Client A pipelines 4 slow cells on one connection (raw frames — the
  // library client is deliberately one-request-at-a-time).
  const int fd = connect_socket(fx.server.endpoint());
  for (std::uint64_t i = 1; i <= 4; ++i) {
    WireRequest request;
    request.id = i;
    request.payload = small_whatif(i, /*duration_s=*/20.0);
    send_frame(fd, encode_request(request));
  }
  await(fx.server, [](const ServeStats& s) { return s.wire_accepted >= 4; });

  // Client B's single query must be served after at most one of A's
  // remaining cells — not behind all four.
  std::atomic<int> a_replies{0};
  std::thread a_reader([&] {
    for (int i = 0; i < 4; ++i) {
      const auto reply = recv_frame(fd);
      if (!reply.has_value()) break;
      ++a_replies;
    }
  });

  ServeClient b(fx.server.endpoint());
  (void)b.what_if(small_whatif(9, /*duration_s=*/2.0));
  const int a_done_when_b_answered = a_replies.load();

  a_reader.join();
  ::close(fd);
  // With fair round-robin, B ran right after A's in-flight cell: at most
  // 2 of A's four replies (execution overlap slack) had landed.  A
  // FIFO-across-all-connections server would finish all 4 first.
  EXPECT_LE(a_done_when_b_answered, 2);
  EXPECT_EQ(a_replies.load(), 4);
}

TEST(ServeNet, StatsBypassAdmissionAndReportTransportCounters) {
  ServerParams params;
  params.workers = 1;
  params.max_inflight = 1;
  Fixture fx(params);

  std::thread slow([&] {
    ServeClient client(fx.server.endpoint());
    (void)client.what_if(small_whatif(1, /*duration_s=*/60.0));
  });
  await(fx.server, [](const ServeStats& s) { return s.wire_accepted >= 1; });

  // The in-flight slot is full, yet stats answer inline.
  ServeClient client(fx.server.endpoint());
  const ServeStats stats = client.stats();
  EXPECT_GE(stats.wire_accepted, 1u);
  EXPECT_GE(stats.wire_connections, 1u);
  EXPECT_GE(stats.wire_queue_hwm, 1u);
  slow.join();
}

TEST(ServeNet, UnixDomainSocketServesQueries) {
  const std::string path = testing::TempDir() + "/liquid3d_serve_test.sock";
  ThermalService service;
  ServeServer server(service);
  server.start(parse_endpoint("unix:" + path, "test"));
  ServeClient client(server.endpoint());
  EXPECT_EQ(client.steady(small_steady()).t_max_c,
            service.steady(small_steady()).t_max_c);
  server.stop();
}

}  // namespace
}  // namespace liquid3d
