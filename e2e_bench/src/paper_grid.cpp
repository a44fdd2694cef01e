// paper-grid — the Fig. 6 grid (7 scenarios x 8 Table II workloads) on the
// 2-layer Niagara stack through ExperimentSuite::run on a 2-worker pool.
// Nearly all CPU goes to transient stepping in thermal/ and thermal/solver
// and to the sim tick; serve/ is never touched.
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace liquid3d;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr double kSimulatedSeconds = 10.0;

SuiteConfig suite_config(const Options& opt) {
  SuiteConfig cfg;
  cfg.layer_pairs = 1;
  // The variable-flow controller needs about 10 simulated seconds to
  // undercut worst-case pump energy, so the smoke size coarsens the grid
  // instead of shortening the run.
  cfg.duration = SimTime::from_s(kSimulatedSeconds);
  if (opt.smoke) {
    cfg.base.thermal.grid_rows = 8;
    cfg.base.thermal.grid_cols = 9;
  }
  cfg.seed = opt.seed;
  cfg.worker_threads = kWorkers;
  cfg.execution = SuiteExecution::kThreadPool;
  return cfg;
}

/// Characterize every system the grid uses (what ExperimentSuite::run does
/// lazily before its fan-out).
void characterize(ExperimentSuite& suite) {
  const auto workloads = table2_benchmarks();
  for (const ScenarioSpec& s : paper_scenario_grid()) {
    (void)suite.make_config(s, workloads.front());
  }
}

std::vector<SimulationResult> flatten(const std::vector<PolicySummary>& summaries) {
  std::vector<SimulationResult> out;
  for (const PolicySummary& s : summaries) {
    out.insert(out.end(), s.per_workload.begin(), s.per_workload.end());
  }
  return out;
}

/// The paper's claims on one grid: liquid cells have no hot spots, and the
/// variable-flow controller pumps less than worst-case flow.
void check_paper_claims(const std::vector<PolicySummary>& grid, Report& report) {
  double talb_var_pump = -1.0;
  double lb_max_pump = -1.0;
  for (const PolicySummary& s : grid) {
    for (const SimulationResult& r : s.per_workload) {
      const bool liquid = s.label.find("Air") == std::string::npos;
      if (liquid && r.hotspot_percent > 0.0) {
        report.fail(s.label + "/" + r.benchmark + " has hot-spot time above 85 C");
      }
    }
    if (s.label == "TALB (Var)") talb_var_pump = s.total_pump_energy();
    if (s.label == "LB (Max)") lb_max_pump = s.total_pump_energy();
  }
  report.note("talb_var_pump_j", talb_var_pump, "J");
  report.note("lb_max_pump_j", lb_max_pump, "J");
  if (!(talb_var_pump >= 0.0 && lb_max_pump > 0.0 && talb_var_pump < lb_max_pump)) {
    report.fail("TALB (Var) pump energy is not below LB (Max)'s");
  }
}

/// One cell driven by hand — init, then per tick begin_tick, one
/// thermal().step per substep, finish_tick — with a span around each call.
SimulationResult traced_cell(const SimulationConfig& cfg, Tracer& tracer,
                             std::atomic<std::size_t>& substeps) {
  ScopedSpan cell(&tracer, "sim.cell");
  SimulationSession session(cfg);
  {
    ScopedSpan span(&tracer, "sim.init", cell.id());
    session.init();
  }
  std::size_t steps = 0;
  while (!session.done()) {
    {
      ScopedSpan span(&tracer, "sim.begin_tick", cell.id());
      session.begin_tick();
    }
    for (std::size_t k = 0; k < session.substep_count(); ++k) {
      ScopedSpan span(&tracer, "thermal.step", cell.id());
      session.thermal().step(session.substep_dt());
      ++steps;
    }
    ScopedSpan span(&tracer, "sim.finish_tick", cell.id());
    session.finish_tick();
  }
  substeps += steps;
  return session.result();
}

}  // namespace

/// The probe resets to ambient, then solves three times at the session's
/// warm-start flow and total power (spread over the cores), as
/// SimulationSession::init does.
void probe_steady(const SimulationConfig& cfg, Tracer& tracer) {
  SimulationSession session(cfg);
  session.init();
  ThermalModel3D probe(make_simulation_stack(cfg), cfg.thermal);
  if (cfg.cooling != CoolingMode::kAir) {
    probe.set_cavity_flow(session.thermal().cavity_flows());
  }
  const Stack3D& stack = session.stack();
  const double per_core =
      session.thermal().total_power() / static_cast<double>(session.core_count());
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    const Floorplan& fp = stack.layer(l).floorplan;
    std::vector<double> watts(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) watts[b] = per_core;
    }
    probe.set_block_power(l, watts);
  }
  probe.initialize(cfg.thermal.ambient_temperature);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(&tracer, "thermal.steady");
    probe.solve_steady_state();
  }
}

bool same_result(const SimulationResult& a, const SimulationResult& b) {
  return a.label == b.label && a.benchmark == b.benchmark &&
         same_bits(a.hotspot_percent, b.hotspot_percent) &&
         same_bits(a.hotspot_max_sample, b.hotspot_max_sample) &&
         same_bits(a.above_target_percent, b.above_target_percent) &&
         same_bits(a.spatial_gradient_percent, b.spatial_gradient_percent) &&
         same_bits(a.thermal_cycles_per_1000, b.thermal_cycles_per_1000) &&
         same_bits(a.avg_tmax, b.avg_tmax) && same_bits(a.chip_energy_j, b.chip_energy_j) &&
         same_bits(a.pump_energy_j, b.pump_energy_j) &&
         same_bits(a.total_energy_j, b.total_energy_j) &&
         same_bits(a.throughput_per_s, b.throughput_per_s) &&
         same_bits(a.avg_utilization, b.avg_utilization) && a.migrations == b.migrations &&
         a.pump_transitions == b.pump_transitions &&
         a.valve_transitions == b.valve_transitions &&
         same_bits(a.avg_flow_skew, b.avg_flow_skew) &&
         a.predictor_rebuilds == b.predictor_rebuilds &&
         same_bits(a.forecast_rmse, b.forecast_rmse) &&
         same_bits(a.avg_pump_setting, b.avg_pump_setting) &&
         same_bits(a.elapsed_s, b.elapsed_s);
}

bool finite_result(const SimulationResult& r) {
  for (double v : {r.hotspot_percent, r.hotspot_max_sample, r.above_target_percent,
                   r.spatial_gradient_percent, r.thermal_cycles_per_1000, r.avg_tmax,
                   r.chip_energy_j, r.pump_energy_j, r.total_energy_j, r.throughput_per_s,
                   r.avg_utilization, r.avg_flow_skew, r.forecast_rmse,
                   r.avg_pump_setting}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void run_paper_grid(const Options& opt, Report& report) {
  const SuiteConfig cfg = suite_config(opt);
  const auto scenarios = paper_scenario_grid();
  const auto workloads = table2_benchmarks();
  const double cells = static_cast<double>(scenarios.size() * workloads.size());

  // Set-up: characterization on a fresh suite, repeated; the last suite runs.
  std::unique_ptr<ExperimentSuite> suite;
  std::vector<double> setups = setup_samples(opt, [&] {
    suite = std::make_unique<ExperimentSuite>(cfg);
    characterize(*suite);
  });

  // Timed phase: whole grids until the budget is spent (at least two, so
  // repetitions can be compared).
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<std::vector<SimulationResult>> reps;
  const auto phase_start = Clock::now();
  while (reps.size() < 2 || seconds_since(phase_start) < opt.seconds) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    auto grid = suite->run(scenarios, workloads);
    wall_s.push_back(seconds_since(t0));
    cpu_s.push_back(process_cpu_s() - cpu0);
    if (reps.empty()) check_paper_claims(grid, report);
    reps.push_back(flatten(grid));
  }

  const double rss_mb = peak_rss_mb();
  for (double t : setup_samples(opt, [&] {
         ExperimentSuite fresh(cfg);
         characterize(fresh);
       })) {
    setups.push_back(t);
  }
  const double setup_s = median(setups);

  // Checks: finite, and every repetition identical to the first.
  std::vector<SimulationResult> reference = reps.front();
  if (opt.perturb) reference.front().avg_tmax += 1e-9;
  for (const auto& rep : reps) {
    report.attempted(rep.size());
    for (std::size_t i = 0; i < rep.size(); ++i) {
      if (!finite_result(rep[i])) report.fail("non-finite result in " + rep[i].label);
      if (!same_result(rep[i], reference[i])) {
        report.fail(rep[i].label + "/" + rep[i].benchmark + " differs across repetitions");
      }
    }
  }

  // Latency is the median grid; rate and CPU per cell are run totals.
  const double grid_wall = median(wall_s);
  const double grids = static_cast<double>(wall_s.size());
  double total_wall = 0.0;
  double total_cpu = 0.0;
  for (std::size_t g = 0; g < wall_s.size(); ++g) {
    total_wall += wall_s[g];
    total_cpu += cpu_s[g];
  }
  const double grid_cpu = total_cpu / grids;
  report.note("setup_s", setup_s, "s");
  report.note("grid_wall_s", grid_wall, "s");
  report.note("grid_cpu_s", grid_cpu, "s");
  report.note("grids", grids, "count");
  report.set("setup_s", setup_s);
  report.set("latency_p50_ms", 1e3 * grid_wall);
  report.set("ops_per_s", cells * grids / total_wall);
  report.set("cpu_ms_per_op", 1e3 * grid_cpu / cells);
  report.set("peak_rss_mb", rss_mb);
  report.note("peak_rss_mb", rss_mb, "MB");
  if (!opt.trace) return;

  // Traced pass: characterization spans on a fresh cache, then one grid
  // driven cell by cell on the same number of workers.
  Tracer tracer;
  {
    CharacterizationCache cache;
    for (const ScenarioSpec& s : {scenarios.back(), scenarios[2]}) {  // talb-var, talb-air
      SimulationConfig sys = cfg.base;
      sys.layer_pairs = cfg.layer_pairs;
      apply_scenario(s, sys);
      if (sys.cooling != CoolingMode::kAir) {
        ScopedSpan span(&tracer, "characterization.flow_lut");
        (void)cache.flow_lut(sys);
      }
      ScopedSpan span(&tracer, "characterization.talb");
      (void)cache.talb_weights(sys);
    }
  }
  std::vector<SimulationConfig> configs;
  for (const ScenarioSpec& s : scenarios) {
    for (const BenchmarkSpec& w : workloads) configs.push_back(suite->make_config(s, w));
  }
  std::vector<SimulationResult> traced(configs.size());
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> substeps{0};
  const Instruments before = Instruments::read();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::mutex error_mu;
  std::exception_ptr error;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      try {
        for (std::size_t i = cursor++; i < configs.size(); i = cursor++) {
          traced[i] = traced_cell(configs[i], tracer, substeps);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        cursor = configs.size();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
  const double traced_wall = seconds_since(t0);
  const double traced_cpu = process_cpu_s() - cpu0;
  const Instruments delta = Instruments::read() - before;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (!same_result(traced[i], reference[i])) {
      report.fail(traced[i].label + "/" + traced[i].benchmark +
                  " traced result differs from ExperimentSuite::run");
    }
  }
  report.attempted(traced.size());
  for (const ScenarioSpec& s : scenarios) {
    probe_steady(suite->make_config(s, workloads.front()), tracer);
  }

  const StageStats init = tracer.stage("sim.init");
  const StageStats begin = tracer.stage("sim.begin_tick");
  const StageStats step = tracer.stage("thermal.step");
  const StageStats finish = tracer.stage("sim.finish_tick");
  report.set("solver.direct_solves", delta.direct_solves);
  report.set("solver.direct_solve_s", delta.direct_solve_s);
  report.set("solver.solves_per_substep",
             delta.direct_solves / static_cast<double>(std::max<std::size_t>(substeps, 1)));
  report.set("solver.factorizations", delta.factorizations);
  report.set("solver.factorize_s", delta.factorize_s);
  report.set("solver.assemble_s", delta.assemble_s);
  report.set("thermal.step_us_p50", 1e6 * median(step.durations_s));
  report.set("thermal.step_s", step.total_s);
  report.set("thermal.steady_ms_p50", 1e3 * median(tracer.stage("thermal.steady").durations_s));
  report.set("sim.begin_tick_s", begin.total_s);
  report.set("sim.finish_tick_s", finish.total_s);
  report.set("sim.init_s", init.total_s);
  report.set("sim.unattributed_s",
             traced_cpu - init.total_s - begin.total_s - step.total_s - finish.total_s);
  report.set("characterization.flow_lut_s", tracer.stage("characterization.flow_lut").total_s);
  report.set("characterization.talb_s", tracer.stage("characterization.talb").total_s);
  report.set("obs.trace_overhead", traced_wall / grid_wall - 1.0);
  report.note("traced_grid_cpu_s", traced_cpu, "s");
  report.note("traced_substeps", static_cast<double>(substeps), "count");
  if (!opt.trace_dir.empty()) {
    tracer.dump(opt.trace_dir + "/paper-grid-" + std::to_string(opt.seed) + ".jsonl");
  }
}

}  // namespace e2e
