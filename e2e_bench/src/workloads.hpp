// workloads.hpp — the benchmark's workloads.  Each one runs its set-up and
// timed phase, checks its answers, and fills the report: the end-to-end
// metrics when untraced, the per-layer metrics when traced (a traced run
// first repeats the untraced measurement, so obs.trace_overhead compares
// the two inside one process).
#pragma once

#include "harness.hpp"
#include "sim/session.hpp"

namespace e2e {

/// Every field of two results bit for bit.
[[nodiscard]] bool same_result(const liquid3d::SimulationResult& a,
                               const liquid3d::SimulationResult& b);
/// Every floating-point field finite.
[[nodiscard]] bool finite_result(const liquid3d::SimulationResult& r);

/// The warm start's three steady solves on a probe model of `cfg`'s system,
/// each under a "thermal.steady" span.
void probe_steady(const liquid3d::SimulationConfig& cfg, Tracer& tracer);

void run_paper_grid(const Options& opt, Report& report);
void run_steady_queries(const Options& opt, Report& report);
void run_steady_full(const Options& opt, Report& report);
void run_steady_wire(const Options& opt, Report& report);
void run_whatif_queue(const Options& opt, Report& report);

}  // namespace e2e
