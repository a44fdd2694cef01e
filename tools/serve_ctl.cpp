// serve_ctl — command-line front end for the always-on thermal service.
//
// One binary, five subcommands, each usable against an in-process service
// (default) or a running serve_daemon (`--connect HOST:PORT|unix:PATH`):
//
//   serve_ctl steady [system flags] [--core-watts W] [--pump-setting N]
//            [--flows a,b,..] [--valves a,b,..] [--reference C]
//            [--max-error K] [--force-full] [--repeat N]
//       One steady T_max query.  --repeat re-issues it against the warm
//       service and reports p50/p99 latency (service-side compute latency
//       in-process, client-observed round-trip over the wire).
//   serve_ctl whatif --scenario NAME --benchmark NAME [--duration-s S]
//            [--seed N] [system flags]
//       One full-fidelity scenario run through the async queue.
//   serve_ctl replay [whatif flags] [--phase T:SCALE]... [--trace-period-s S]
//       Transient replay over a workload phase schedule; prints the trace.
//   serve_ctl burst --count N [whatif flags] [--steady N] [--verify]
//       Fire a mixed burst (N what-if + steady queries + one replay)
//       concurrently — one connection per in-flight query over the wire —
//       wait, and print service statistics.  Typed transport rejections
//       (overloaded / shutting-down / deadline-exceeded) are counted and
//       reported, not fatal: a draining server answering "shutting-down"
//       is correct behaviour, not a client failure.  --verify re-runs
//       every answered what-if through a solo SimulationSession and
//       requires bit-identical results — the CI smoke check that service
//       answers (batched, and over the wire) match single-shot runs
//       exactly.
//   serve_ctl stats --connect ENDPOINT [--reset-hwm]
//       Print the daemon's ServeStats counters, including the wire_*
//       transport counters.  Answered inline by the server (bypasses
//       admission), so it works against an overloaded daemon.
//       --reset-hwm zeroes the windowed queue high-water mark after
//       reporting it (the lifetime HWM is never reset).
//   serve_ctl metrics --connect ENDPOINT
//       Scrape the daemon's Prometheus-style metrics exposition (the
//       global obs registry plus the ServeStats counters).
//   serve_ctl trace --connect ENDPOINT [--limit N]
//       Dump the daemon's most recent query spans (requires the daemon
//       to run with LIQUID3D_TRACE=1).
//
// Exit codes: 0 success, 1 verification mismatch, 2 usage/config error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "geom/stack_spec.hpp"
#include "serve/net/client.hpp"
#include "serve/service.hpp"

namespace {

using namespace liquid3d;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " COMMAND [options]\n"
      << "\n"
      << "global options (every command):\n"
      << "  --connect HOST:PORT|unix:PATH   query a running serve_daemon\n"
      << "  --deadline-ms D                 per-request deadline (wire only)\n"
      << "\n"
      << "  steady [--cooling liquid|air] [--layer-pairs N] [--stack AXIS]\n"
      << "         [--grid-rows N] [--grid-cols N] [--core-watts W]\n"
      << "         [--pump-setting N] [--flows a,b,..] [--valves a,b,..]\n"
      << "         [--reference C] [--max-error K] [--force-full]\n"
      << "         [--repeat N]\n"
      << "  whatif --scenario NAME --benchmark NAME [--duration-s S]\n"
      << "         [--seed N] [--layer-pairs N] [--stack AXIS]\n"
      << "         [--grid-rows N] [--grid-cols N]\n"
      << "  replay [whatif options] [--phase T:SCALE]... [--trace-period-s S]\n"
      << "  burst  --count N [whatif options] [--steady N] [--verify]\n"
      << "  stats  --connect ENDPOINT [--reset-hwm]\n"
      << "  metrics --connect ENDPOINT      Prometheus-style exposition\n"
      << "  trace  --connect ENDPOINT [--limit N]   recent query spans\n";
  return 2;
}

// -- backends -----------------------------------------------------------------

/// Where queries go: an in-process ThermalService or a daemon over the
/// wire.  Answers are bit-identical either way (locked by `burst --verify`
/// and the ServeNet tests), so subcommands are written once against this.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual SteadyAnswer steady(const SteadyQuery& q) = 0;
  virtual SessionOutcome what_if(const WhatIfQuery& q) = 0;
  virtual SessionOutcome replay(const ReplayQuery& q) = 0;
  virtual ServeStats stats() = 0;
};

class LocalBackend : public Backend {
 public:
  explicit LocalBackend(ServeParams params) : service_(params) {}
  ThermalService& service() { return service_; }
  SteadyAnswer steady(const SteadyQuery& q) override { return service_.steady(q); }
  SessionOutcome what_if(const WhatIfQuery& q) override {
    return service_.what_if(q).get();
  }
  SessionOutcome replay(const ReplayQuery& q) override {
    return service_.replay(q).get();
  }
  ServeStats stats() override { return service_.stats(); }

 private:
  ThermalService service_;
};

class WireBackend : public Backend {
 public:
  WireBackend(const Endpoint& ep, double deadline_ms) : client_(ep) {
    client_.set_deadline_ms(deadline_ms);
  }
  SteadyAnswer steady(const SteadyQuery& q) override { return client_.steady(q); }
  SessionOutcome what_if(const WhatIfQuery& q) override {
    return client_.what_if(q);
  }
  SessionOutcome replay(const ReplayQuery& q) override {
    return client_.replay(q);
  }
  ServeStats stats() override { return client_.stats(); }

 private:
  ServeClient client_;
};

/// Cross-cutting connection options, registered on every subcommand.
struct ConnectOpts {
  std::string connect;  ///< empty = in-process
  double deadline_ms = 0.0;

  [[nodiscard]] bool wire() const { return !connect.empty(); }
  [[nodiscard]] Endpoint endpoint() const {
    return parse_endpoint(connect, "--connect");
  }
  [[nodiscard]] std::unique_ptr<Backend> make(ServeParams local = {}) const {
    if (wire()) return std::make_unique<WireBackend>(endpoint(), deadline_ms);
    return std::make_unique<LocalBackend>(local);
  }
  void register_on(FlagSet& flags) {
    flags.text("--connect", &connect);
    flags.number("--deadline-ms", &deadline_ms);
  }
};

// -- shared flag groups -------------------------------------------------------

std::vector<double> split_doubles(const std::string& s, const std::string& flag) {
  std::vector<double> out;
  for (std::size_t pos = 0; pos <= s.size();) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    const std::string item = s.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(parse_double(item, flag));
    pos = comma + 1;
  }
  return out;
}

/// System-identity axes shared by every query family.  `cooling` is read
/// lazily (at --stack resolution a steady command may have set it first).
void register_system_flags(FlagSet& flags, WhatIfQuery* q,
                           const CoolingMode* cooling) {
  flags.number("--layer-pairs", &q->layer_pairs);
  flags.value("--stack", [q, cooling](const std::string& v) {
    const CoolingType type = *cooling == CoolingMode::kAir
                                 ? CoolingType::kAir
                                 : CoolingType::kLiquid;
    q->stack = resolve_stack_axis(v, type, {});
  });
  flags.number("--grid-rows", &q->grid_rows);
  flags.number("--grid-cols", &q->grid_cols);
}

void register_whatif_flags(FlagSet& flags, WhatIfQuery* q) {
  flags.text("--scenario", &q->scenario);
  flags.text("--benchmark", &q->benchmark);
  flags.number("--duration-s", &q->duration_s);
  flags.number("--seed", &q->seed);
}

void require_whatif(const WhatIfQuery& q) {
  LIQUID3D_REQUIRE(!q.scenario.empty(), "--scenario is required");
  LIQUID3D_REQUIRE(!q.benchmark.empty(), "--benchmark is required");
}

void print_result(const SimulationResult& r) {
  std::printf("label=%s benchmark=%s\n", r.label.c_str(), r.benchmark.c_str());
  std::printf("peak_tmax_c=%.3f avg_tmax_c=%.3f hotspot_pct=%.2f\n",
              r.hotspot_max_sample, r.avg_tmax, r.hotspot_percent);
  std::printf("energy_j=%.2f throughput_per_s=%.2f migrations=%zu\n",
              r.total_energy_j, r.throughput_per_s, r.migrations);
}

[[nodiscard]] bool results_equal(const SimulationResult& a,
                                 const SimulationResult& b) {
  return a.label == b.label && a.benchmark == b.benchmark &&
         a.hotspot_percent == b.hotspot_percent &&
         a.hotspot_max_sample == b.hotspot_max_sample &&
         a.above_target_percent == b.above_target_percent &&
         a.spatial_gradient_percent == b.spatial_gradient_percent &&
         a.thermal_cycles_per_1000 == b.thermal_cycles_per_1000 &&
         a.avg_tmax == b.avg_tmax && a.chip_energy_j == b.chip_energy_j &&
         a.pump_energy_j == b.pump_energy_j &&
         a.total_energy_j == b.total_energy_j &&
         a.throughput_per_s == b.throughput_per_s &&
         a.avg_utilization == b.avg_utilization &&
         a.migrations == b.migrations &&
         a.pump_transitions == b.pump_transitions &&
         a.valve_transitions == b.valve_transitions &&
         a.avg_flow_skew == b.avg_flow_skew &&
         a.predictor_rebuilds == b.predictor_rebuilds &&
         a.forecast_rmse == b.forecast_rmse &&
         a.avg_pump_setting == b.avg_pump_setting;
}

// -- subcommands --------------------------------------------------------------

int cmd_steady(int argc, char** argv) {
  SteadyQuery q;
  WhatIfQuery system;  // flag container for the shared system axes
  std::size_t repeat = 1;
  CoolingMode cooling = CoolingMode::kLiquidMax;
  ConnectOpts conn;

  FlagSet flags("steady");
  conn.register_on(flags);
  register_system_flags(flags, &system, &cooling);
  flags.value("--cooling", [&cooling](const std::string& v) {
    if (v == "air") {
      cooling = CoolingMode::kAir;
    } else if (v == "liquid") {
      cooling = CoolingMode::kLiquidMax;
    } else {
      throw ConfigError("--cooling must be liquid or air, got '" + v + "'");
    }
  });
  flags.number("--core-watts", &q.core_watts);
  flags.number("--pump-setting", &q.pump_setting);
  flags.value("--flows", [&q](const std::string& v) {
    q.flows_ml_per_min = split_doubles(v, "--flows");
  });
  flags.value("--valves", [&q](const std::string& v) {
    q.valve_openings = split_doubles(v, "--valves");
  });
  flags.value("--reference", [&q](const std::string& v) {
    q.reference_c = parse_double(v, "--reference");
  });
  flags.number("--max-error", &q.max_error_c);
  flags.flag("--force-full", &q.force_full);
  flags.number("--repeat", &repeat);
  flags.parse(argc, argv);

  q.config.cooling = cooling;
  q.config.layer_pairs = system.layer_pairs;
  if (system.stack) q.config.stack = *system.stack;
  if (system.grid_rows > 0) q.config.thermal.grid_rows = system.grid_rows;
  if (system.grid_cols > 0) q.config.thermal.grid_cols = system.grid_cols;

  const std::unique_ptr<Backend> backend = conn.make();
  SteadyAnswer answer = backend->steady(q);
  if (repeat > 1) {
    // In-process the ROM compute time is the story; over the wire the
    // client-observed round trip is (that is what a remote caller pays).
    std::vector<double> lat;
    lat.reserve(repeat);
    for (std::size_t i = 0; i < repeat; ++i) {
      const auto start = std::chrono::steady_clock::now();
      answer = backend->steady(q);
      const double rtt_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
      lat.push_back(conn.wire() ? rtt_us : answer.elapsed_us);
    }
    std::sort(lat.begin(), lat.end());
    std::printf("repeat=%zu p50_us=%.1f p99_us=%.1f\n", repeat,
                lat[lat.size() / 2], lat[(lat.size() * 99) / 100]);
  }
  std::printf("t_max_c=%.4f path=%s elapsed_us=%.1f\n", answer.t_max_c,
              answer.used_rom ? "rom" : "full", answer.elapsed_us);
  if (answer.used_rom) {
    std::printf("rom_dimension=%zu estimated_error_c=%.3g certified_error_c=%.3g\n",
                answer.rom_dimension, answer.estimated_error_c,
                answer.certified_error_c);
  }
  for (std::size_t l = 0; l < answer.layer_max_c.size(); ++l) {
    std::printf("layer%zu_max_c=%.4f\n", l, answer.layer_max_c[l]);
  }
  return 0;
}

int cmd_whatif(int argc, char** argv) {
  WhatIfQuery q;
  ConnectOpts conn;
  const CoolingMode cooling = CoolingMode::kLiquidVar;
  FlagSet flags("whatif");
  conn.register_on(flags);
  register_whatif_flags(flags, &q);
  register_system_flags(flags, &q, &cooling);
  flags.parse(argc, argv);
  require_whatif(q);

  const SessionOutcome outcome = conn.make()->what_if(q);
  print_result(outcome.result);
  return 0;
}

int cmd_replay(int argc, char** argv) {
  ReplayQuery q;
  q.trace_period_s = 1.0;
  ConnectOpts conn;
  const CoolingMode cooling = CoolingMode::kLiquidVar;
  FlagSet flags("replay");
  conn.register_on(flags);
  register_whatif_flags(flags, &q.base);
  register_system_flags(flags, &q.base, &cooling);
  flags.value("--phase", [&q](const std::string& v) {
    const std::size_t colon = v.find(':');
    LIQUID3D_REQUIRE(colon != std::string::npos,
                     "--phase expects T_SECONDS:SCALE, got '" + v + "'");
    PhaseChange phase;
    phase.at = SimTime::from_s(parse_double(v.substr(0, colon), "--phase"));
    phase.utilization_scale = parse_double(v.substr(colon + 1), "--phase");
    q.phases.push_back(phase);
  });
  flags.number("--trace-period-s", &q.trace_period_s);
  flags.parse(argc, argv);
  require_whatif(q.base);

  const SessionOutcome outcome = conn.make()->replay(q);
  for (const SampleTrace& s : outcome.trace) {
    std::printf("t=%7.1fs tmax=%6.2fC pump=%zu flow=%6.1fml/min chip=%5.1fW\n",
                s.now.as_s(), s.tmax, s.pump_setting, s.flow_ml_per_min,
                s.chip_watts);
  }
  print_result(outcome.result);
  return 0;
}

/// One burst lane: the outcome, or the typed transport code that rejected
/// it (rejections are expected behaviour under overload/drain, not bugs).
struct BurstLane {
  std::optional<SessionOutcome> outcome;
  std::optional<WireErrorCode> rejected;
};

BurstLane run_wire_lane(const ConnectOpts& conn,
                        const std::function<SessionOutcome(Backend&)>& go) {
  BurstLane lane;
  try {
    WireBackend backend(conn.endpoint(), conn.deadline_ms);
    lane.outcome = go(backend);
  } catch (const WireError& e) {
    lane.rejected = e.code();
  }
  return lane;
}

int cmd_burst(int argc, char** argv) {
  std::size_t count = 8;
  std::size_t steady_count = 4;
  bool verify = false;
  WhatIfQuery base;
  ConnectOpts conn;
  const CoolingMode cooling = CoolingMode::kLiquidVar;
  FlagSet flags("burst");
  conn.register_on(flags);
  register_whatif_flags(flags, &base);
  register_system_flags(flags, &base, &cooling);
  flags.number("--count", &count);
  flags.number("--steady", &steady_count);
  flags.flag("--verify", &verify);
  flags.parse(argc, argv);
  require_whatif(base);

  // Mixed concurrent burst: what-if queries (distinct seeds — same topology,
  // so the queue batches them), one replay, and steady queries in between.
  std::vector<WhatIfQuery> queries;
  for (std::size_t i = 0; i < count; ++i) {
    WhatIfQuery q = base;
    q.seed = base.seed + i;
    queries.push_back(q);
  }
  ReplayQuery replay;
  replay.base = base;
  replay.base.seed = base.seed + count;
  replay.phases.push_back({SimTime::from_s(base.duration_s / 2), 0.5});
  replay.trace_period_s = 1.0;

  SteadyQuery steady;
  steady.config.cooling =
      ThermalService::session_config(base).cooling == CoolingMode::kAir
          ? CoolingMode::kAir
          : CoolingMode::kLiquidMax;
  steady.config.layer_pairs = base.layer_pairs;
  if (base.stack) steady.config.stack = *base.stack;
  if (base.grid_rows > 0) steady.config.thermal.grid_rows = base.grid_rows;
  if (base.grid_cols > 0) steady.config.thermal.grid_cols = base.grid_cols;

  std::vector<BurstLane> lanes(queries.size());
  BurstLane replay_lane;
  double steady_tmax = 0.0;
  std::size_t rom_answers = 0;
  std::size_t steady_rejected = 0;
  ServeStats stats;

  if (conn.wire()) {
    // One connection per in-flight query — the shape the daemon's
    // per-client fairness and admission control are built for.
    std::vector<std::thread> threads;
    threads.reserve(queries.size() + 1);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      threads.emplace_back([&, i] {
        lanes[i] = run_wire_lane(
            conn, [&](Backend& b) { return b.what_if(queries[i]); });
      });
    }
    threads.emplace_back([&] {
      replay_lane =
          run_wire_lane(conn, [&](Backend& b) { return b.replay(replay); });
    });
    {
      try {
        WireBackend backend(conn.endpoint(), conn.deadline_ms);
        for (std::size_t i = 0; i < steady_count; ++i) {
          try {
            const SteadyAnswer a = backend.steady(steady);
            steady_tmax = a.t_max_c;
            rom_answers += a.used_rom ? 1 : 0;
          } catch (const WireError&) {
            ++steady_rejected;
          }
        }
        stats = backend.stats();
      } catch (const WireError&) {
        steady_rejected += steady_count;
      }
    }
    for (std::thread& t : threads) t.join();
  } else {
    ServeParams params;
    params.queue.max_batch = std::max<std::size_t>(count, 1);
    LocalBackend local(params);
    ThermalService& service = local.service();
    std::vector<std::future<SessionOutcome>> futures;
    futures.reserve(queries.size());
    for (const WhatIfQuery& q : queries) futures.push_back(service.what_if(q));
    std::future<SessionOutcome> replay_future = service.replay(replay);
    for (std::size_t i = 0; i < steady_count; ++i) {
      const SteadyAnswer a = service.steady(steady);
      steady_tmax = a.t_max_c;
      rom_answers += a.used_rom ? 1 : 0;
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      lanes[i].outcome = futures[i].get();
    }
    replay_lane.outcome = replay_future.get();
    service.wait_idle();
    stats = service.stats();
  }

  std::size_t rejected = steady_rejected;
  std::size_t answered = 0;
  for (const BurstLane& lane : lanes) {
    if (lane.outcome) {
      ++answered;
    } else {
      ++rejected;
    }
  }
  if (!replay_lane.outcome) ++rejected;

  int failures = 0;
  if (verify) {
    // Contract: a service answer — batched in-process or through the
    // daemon — is bit-identical to a single-shot session run of the same
    // cell.  Rejected lanes have no answer to check.
    std::size_t checked = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!lanes[i].outcome) continue;
      const SimulationResult solo =
          SimulationSession(ThermalService::session_config(queries[i])).run();
      ++checked;
      if (!results_equal(lanes[i].outcome->result, solo)) {
        std::fprintf(stderr, "VERIFY MISMATCH: what-if %zu (seed %llu)\n", i,
                     static_cast<unsigned long long>(queries[i].seed));
        ++failures;
      }
    }
    std::printf("verify=%s checked=%zu\n", failures == 0 ? "ok" : "FAILED",
                checked);
  }

  std::printf("whatif=%zu rejected=%zu replay_trace=%zu steady=%zu "
              "steady_tmax_c=%.3f rom_answers=%zu\n",
              answered, rejected,
              replay_lane.outcome ? replay_lane.outcome->trace.size() : 0,
              steady_count - steady_rejected, steady_tmax, rom_answers);
  std::printf("batches=%zu batched_sessions=%zu max_batch=%zu "
              "solo_fallbacks=%zu rom_builds=%zu full_solves=%zu\n",
              stats.batches, stats.batched_sessions, stats.max_batch,
              stats.solo_fallbacks, stats.rom_builds, stats.full_solves);
  if (conn.wire()) {
    std::printf("wire_accepted=%zu wire_rejected=%zu wire_timed_out=%zu "
                "wire_connections=%zu wire_queue_hwm=%zu "
                "wire_queue_hwm_window=%zu\n",
                stats.wire_accepted, stats.wire_rejected, stats.wire_timed_out,
                stats.wire_connections, stats.wire_queue_hwm,
                stats.wire_queue_hwm_window);
  }
  return failures == 0 ? 0 : 1;
}

int cmd_stats(int argc, char** argv) {
  ConnectOpts conn;
  bool reset_hwm = false;
  FlagSet flags("stats");
  conn.register_on(flags);
  flags.flag("--reset-hwm", &reset_hwm);
  flags.parse(argc, argv);
  LIQUID3D_REQUIRE(conn.wire(),
                   "stats requires --connect (an in-process service would "
                   "have nothing to report)");

  ServeClient client(conn.endpoint());
  client.set_deadline_ms(conn.deadline_ms);
  const ServeStats s = client.stats(reset_hwm);
  std::printf("steady_queries=%zu rom_hits=%zu rom_builds=%zu "
              "rom_fallbacks=%zu rom_evictions=%zu full_solves=%zu "
              "model_evictions=%zu\n",
              s.steady_queries, s.rom_hits, s.rom_builds, s.rom_fallbacks,
              s.rom_evictions, s.full_solves, s.model_evictions);
  std::printf("session_queries=%zu batches=%zu batched_sessions=%zu "
              "max_batch=%zu solo_fallbacks=%zu\n",
              s.session_queries, s.batches, s.batched_sessions, s.max_batch,
              s.solo_fallbacks);
  std::printf("wire_accepted=%zu wire_rejected=%zu wire_timed_out=%zu "
              "wire_connections=%zu wire_queue_hwm=%zu "
              "wire_queue_hwm_window=%zu\n",
              s.wire_accepted, s.wire_rejected, s.wire_timed_out,
              s.wire_connections, s.wire_queue_hwm, s.wire_queue_hwm_window);
  return 0;
}

int cmd_metrics(int argc, char** argv) {
  ConnectOpts conn;
  FlagSet flags("metrics");
  conn.register_on(flags);
  flags.parse(argc, argv);
  LIQUID3D_REQUIRE(conn.wire(),
                   "metrics requires --connect (an in-process service would "
                   "have nothing to report)");

  ServeClient client(conn.endpoint());
  client.set_deadline_ms(conn.deadline_ms);
  std::fputs(client.metrics().c_str(), stdout);
  return 0;
}

int cmd_trace(int argc, char** argv) {
  ConnectOpts conn;
  std::size_t limit = 0;
  FlagSet flags("trace");
  conn.register_on(flags);
  flags.number("--limit", &limit);
  flags.parse(argc, argv);
  LIQUID3D_REQUIRE(conn.wire(),
                   "trace requires --connect (an in-process service would "
                   "have nothing to report)");

  ServeClient client(conn.endpoint());
  client.set_deadline_ms(conn.deadline_ms);
  const std::vector<obs::TraceSpan> spans = client.trace(limit);
  for (const obs::TraceSpan& s : spans) {
    std::printf("trace=%llu span=%u parent=%u stage=%s start_ns=%llu "
                "dur_us=%.1f\n",
                static_cast<unsigned long long>(s.trace_id), s.span_id,
                s.parent_id, s.stage.c_str(),
                static_cast<unsigned long long>(s.start_ns),
                static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  std::printf("spans=%zu\n", spans.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "steady") return cmd_steady(argc - 2, argv + 2);
    if (cmd == "whatif") return cmd_whatif(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
    if (cmd == "burst") return cmd_burst(argc - 2, argv + 2);
    if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
    if (cmd == "metrics") return cmd_metrics(argc - 2, argv + 2);
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "serve_ctl: " << e.what() << "\n";
    return 2;
  }
}
