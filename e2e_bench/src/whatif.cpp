// whatif-queue — WhatIfQuery cells (7 paper scenarios x Table II workloads
// x seeds, default grid), one in four a ReplayQuery with a two-phase
// schedule and a sample trace, all sent to one ThermalService with default
// ServeParams.  The same thermal/solver as paper-grid, reached another way:
// serve/queue -> BatchRunner -> BatchThermalStepper, multi-RHS lockstep.
//
//   burst  every query of a batch submitted at once; sessions per second.
//   paced  an open-loop Poisson schedule at a fixed rate.  Paced sessions
//          mostly run alone, at about 50-60 ms each on the one queue
//          worker, so the rate keeps that worker about half busy (at
//          16/s it was near saturation and the median swung from 61 to
//          106 ms between identical runs); latency runs from each query's
//          due time, and the generator's lag behind the schedule is
//          reported.
#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

#include "common/rng.hpp"
#include "serve/service.hpp"
#include "sim/characterization_cache.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace liquid3d;

namespace {

/// Every (scenario, benchmark) cell once, one in four a replay: every seed
/// runs the same mix, with its own session seeds.  A run repeats the same
/// burst, so bursts differ only in how the host treated them.
constexpr std::size_t kBurst = 56;
constexpr double kSessionSeconds = 3.0;
constexpr double kPacedRate = 8.0;  ///< arrivals per second
constexpr std::size_t kSoloSample = 6;
constexpr auto kPollPeriod = std::chrono::microseconds(200);

struct Query {
  ReplayQuery replay;
  bool is_replay = false;
};

class QueryMaker {
 public:
  QueryMaker(const Options& opt, std::uint64_t stream)
      : opt_(opt), rng_(opt.seed ^ stream), scenarios_(paper_scenario_grid()),
        workloads_(table2_benchmarks()) {}

  Query next() {
    Query q;
    WhatIfQuery& w = q.replay.base;
    w.scenario = scenarios_[count_ % scenarios_.size()].name;
    w.benchmark = workloads_[(count_ / scenarios_.size()) % workloads_.size()].name;
    w.duration_s = opt_.smoke ? 1.0 : kSessionSeconds;
    w.seed = rng_.next_u64();
    if (opt_.smoke) {
      w.grid_rows = 8;
      w.grid_cols = 9;
    }
    q.is_replay = count_ % 4 == 3;
    if (q.is_replay) {
      q.replay.phases = {{SimTime::from_s(w.duration_s / 2), rng_.uniform(0.5, 1.5)}};
      q.replay.trace_period_s = 0.5;
    }
    ++count_;
    return q;
  }

  Rng& rng() { return rng_; }

 private:
  const Options& opt_;
  Rng rng_;
  std::vector<ScenarioSpec> scenarios_;
  std::vector<BenchmarkSpec> workloads_;
  std::size_t count_ = 0;
};

std::future<SessionOutcome> submit(ThermalService& service, const Query& q) {
  return q.is_replay ? service.replay(q.replay) : service.what_if(q.replay.base);
}

SimulationConfig solo_config(const Query& q) {
  SimulationConfig cfg = ThermalService::session_config(q.replay.base);
  cfg.phases = q.replay.phases;
  return cfg;
}

/// Characterize every system the queries use, on the process-wide cache
/// sessions fetch from (emptied first, so every repetition builds).
void characterize(const Options& opt, Tracer* tracer) {
  CharacterizationCache& cache = CharacterizationCache::global();
  cache.clear();
  QueryMaker maker(opt, 0);
  for (std::size_t i = 0; i < paper_scenario_grid().size(); ++i) {
    const SimulationConfig cfg = solo_config(maker.next());
    if (cfg.cooling != CoolingMode::kAir) {
      ScopedSpan span(tracer, "characterization.flow_lut");
      (void)cache.flow_lut(cfg);
    }
    ScopedSpan span(tracer, "characterization.talb");
    (void)cache.talb_weights(cfg);
  }
}

struct Answered {
  Query query;
  SessionOutcome outcome;
  double latency_s = 0.0;
  bool ok = false;
  bool paced = false;  ///< latency runs from the due time
};

struct Phases {
  std::size_t bursts = 0;
  double burst_s = 0.0;      ///< wall time of every burst
  double burst_cpu_s = 0.0;  ///< process CPU time of every burst
  std::vector<double> paced_latency_s;
  double late_max_s = 0.0;
  std::vector<Answered> answers;
  std::size_t failed = 0;
};

void collect(std::future<SessionOutcome>& f, Answered& a, Phases& out) {
  try {
    a.outcome = f.get();
    a.ok = true;
  } catch (const std::exception&) {
    ++out.failed;
  }
}

Phases run_phases(ThermalService& service, const Options& opt, Tracer* tracer) {
  Phases out;
  QueryMaker burst_maker(opt, 0xb0057ULL);
  QueryMaker paced_maker(opt, 0x9aceULL);
  const double burst_window = opt.seconds / 3;
  const double paced_window = opt.seconds - burst_window;

  // Burst: submit the whole batch at once, wait for every answer.
  std::vector<Query> queries;
  for (std::size_t i = 0; i < kBurst; ++i) queries.push_back(burst_maker.next());
  const auto burst_start = Clock::now();
  while (out.bursts == 0 || seconds_since(burst_start) < burst_window) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    std::vector<std::future<SessionOutcome>> futures;
    {
      ScopedSpan span(tracer, "queue.submit");
      for (const Query& q : queries) futures.push_back(submit(service, q));
    }
    std::vector<Answered> answered(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
      answered[i].query = queries[i];
      collect(futures[i], answered[i], out);
      answered[i].latency_s = seconds_since(t0);
    }
    out.burst_s += seconds_since(t0);
    out.burst_cpu_s += process_cpu_s() - cpu0;
    ++out.bursts;
    for (Answered& a : answered) out.answers.push_back(std::move(a));
  }

  // Paced: Poisson arrivals from a seeded schedule, one generator thread
  // that also polls outstanding answers between arrivals.
  struct Pending {
    std::size_t index;
    Clock::time_point due;
    std::future<SessionOutcome> future;
  };
  std::vector<Pending> pending;
  std::vector<Answered> paced;
  const auto paced_start = Clock::now();
  auto poll = [&] {
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      Answered& a = paced[it->index];
      a.latency_s = std::chrono::duration<double>(Clock::now() - it->due).count();
      collect(it->future, a, out);
      if (a.ok) {
        out.paced_latency_s.push_back(a.latency_s);
      }
      it = pending.erase(it);
    }
  };
  double offset_s = 0.0;
  for (;;) {
    offset_s += -std::log(1.0 - paced_maker.rng().uniform()) / kPacedRate;
    if (offset_s > paced_window) break;
    const auto due = paced_start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(offset_s));
    while (Clock::now() < due) {
      poll();
      std::this_thread::sleep_for(std::min<Clock::duration>(kPollPeriod, due - Clock::now()));
    }
    out.late_max_s = std::max(out.late_max_s, seconds_since(due));
    paced.push_back({paced_maker.next(), {}, 0.0, false, true});
    ScopedSpan span(tracer, "queue.submit");
    pending.push_back({paced.size() - 1, due, submit(service, paced.back().query)});
  }
  while (!pending.empty()) {
    poll();
    std::this_thread::sleep_for(kPollPeriod);
  }
  for (Answered& a : paced) out.answers.push_back(std::move(a));
  return out;
}

/// A seeded sample of answers, each compared bit for bit with a solo
/// SimulationSession run of the same query.  Returns each sampled query's
/// queue wait: its answer latency minus its solo run time.
std::vector<double> check(const Phases& p, const Options& opt, Report& report) {
  report.attempted(p.answers.size());
  for (std::size_t i = 0; i < p.failed; ++i) report.fail("session query threw");
  for (const Answered& a : p.answers) {
    if (a.ok && !finite_result(a.outcome.result)) report.fail("non-finite session result");
  }
  // Half the sample from the paced phase, whose latencies give queue waits.
  std::vector<const Answered*> paced;
  for (const Answered& a : p.answers) {
    if (a.paced) paced.push_back(&a);
  }
  // Every repetition of the burst answers exactly as the first did.
  for (std::size_t i = kBurst; i < p.answers.size() && !p.answers[i].paced; ++i) {
    const Answered& first = p.answers[i % kBurst];
    if (p.answers[i].ok && first.ok &&
        !same_result(p.answers[i].outcome.result, first.outcome.result)) {
      report.fail("burst answer " + std::to_string(i) + " differs from its first burst");
    }
  }
  std::vector<double> waits;
  Rng rng(opt.seed ^ 0x5010ULL);
  for (std::size_t s = 0; s < kSoloSample; ++s) {
    const Answered& a = s % 2 == 1 && !paced.empty()
                            ? *paced[rng.uniform_index(paced.size())]
                            : p.answers[rng.uniform_index(p.answers.size())];
    if (!a.ok) continue;
    const auto t0 = Clock::now();
    SimulationSession session(solo_config(a.query));
    session.init();
    while (session.step()) {
    }
    if (a.paced) waits.push_back(a.latency_s - seconds_since(t0));
    SimulationResult solo = session.result();
    if (opt.perturb && s == 0) solo.avg_tmax += 1e-9;
    if (!same_result(a.outcome.result, solo)) {
      report.fail(a.query.replay.base.scenario + "/" + a.query.replay.base.benchmark +
                  " differs from its solo session run");
    }
  }
  return waits;
}

}  // namespace

void run_whatif_queue(const Options& opt, Report& report) {
  std::vector<double> setups = setup_samples(opt, [&] { characterize(opt, nullptr); });
  double p50 = 0.0;
  {
    ThermalService service;
    const Phases p = run_phases(service, opt, nullptr);
    const double rss_mb = peak_rss_mb();
    for (double t : setup_samples(opt, [&] { characterize(opt, nullptr); })) {
      setups.push_back(t);
    }
    const double setup_s = median(setups);
    (void)check(p, opt, report);
    p50 = median(p.paced_latency_s);
    const double burst_sessions = static_cast<double>(kBurst * p.bursts);
    const double burst_rate = burst_sessions / p.burst_s;
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", 1e3 * p50);
    report.set("ops_per_s", burst_rate);
    report.set("cpu_ms_per_op", 1e3 * p.burst_cpu_s / burst_sessions);
    report.set("peak_rss_mb", rss_mb);
    report.note("peak_rss_mb", rss_mb, "MB");
    report.note("setup_s", setup_s, "s");
    report.note("whatif_burst_sessions_per_s", burst_rate, "1/s");
    report.note("whatif_paced_p50_ms", 1e3 * p50, "ms");
    report.note("paced_sessions", static_cast<double>(p.paced_latency_s.size()), "count");
    report.note("loadgen_late_ms_max", 1e3 * p.late_max_s, "ms");
  }
  if (!opt.trace) return;

  // Traced pass: characterization spans, then both phases again on a fresh
  // service, with registry and ServeStats deltas over them.
  Tracer tracer;
  characterize(opt, &tracer);
  ThermalService service;
  const Instruments before = Instruments::read();
  const Phases p = run_phases(service, opt, &tracer);
  const Instruments delta = Instruments::read() - before;
  const ServeStats stats = service.stats();
  const std::vector<double> waits = check(p, opt, report);
  for (std::size_t i = 0; i < std::min<std::size_t>(kSoloSample, p.answers.size()); ++i) {
    if (p.answers[i].ok) probe_steady(solo_config(p.answers[i].query), tracer);
  }

  report.set("solver.direct_solves", delta.direct_solves);
  report.set("solver.direct_solve_s", delta.direct_solve_s);
  report.set("solver.factorizations", delta.factorizations);
  report.set("solver.factorize_s", delta.factorize_s);
  report.set("solver.assemble_s", delta.assemble_s);
  report.set("thermal.steady_ms_p50", 1e3 * median(tracer.stage("thermal.steady").durations_s));
  report.set("characterization.flow_lut_s", tracer.stage("characterization.flow_lut").total_s);
  report.set("characterization.talb_s", tracer.stage("characterization.talb").total_s);
  report.set("batch.groups", delta.batch_groups);
  report.set("batch.group_sessions_mean",
             delta.group_sessions_sum / std::max(delta.group_sessions_n, 1.0));
  report.set("batch.step_s", delta.batch_step_s);
  report.set("queue.batches", static_cast<double>(stats.batches));
  report.set("queue.batch_size_mean",
             static_cast<double>(stats.batched_sessions) /
                 static_cast<double>(std::max<std::size_t>(stats.batches, 1)));
  report.set("queue.solo_fallbacks", static_cast<double>(stats.solo_fallbacks));
  report.set("queue.wait_ms_p50", 1e3 * median(waits));
  report.set("loadgen.late_ms_max", 1e3 * p.late_max_s);
  report.set("obs.trace_overhead", median(p.paced_latency_s) / p50 - 1.0);
  if (!opt.trace_dir.empty()) {
    tracer.dump(opt.trace_dir + "/whatif-queue-" + std::to_string(opt.seed) + ".jsonl");
  }
}

}  // namespace e2e
