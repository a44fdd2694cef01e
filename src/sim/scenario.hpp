// scenario.hpp — named, composable simulation scenarios.
//
// The evaluation used to be expressed through the closed (Policy,
// CoolingMode) enum pair, which could name exactly the paper's seven cells
// and nothing else; the valve-network and skewed-workload experiments had to
// smuggle their extra dimensions through ad-hoc config fields.  A
// ScenarioSpec makes the cell identity a first-class, serializable value:
// policy + cooling + delivery model + named spatial skew, with a stable
// registry name.  ExperimentSuite, the skew comparisons, and the batch
// runner all consume these; sharding a sweep across machines (or
// checkpointing a partial grid) only needs to ship rows of
// `scenario_csv_header()` columns.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "sim/session.hpp"

namespace liquid3d {

/// A spatially skewed load pattern for the per-cavity flow experiments:
/// per-core dispatch bias handed to the load balancer (see
/// LoadBalancerParams::core_bias).
struct SkewScenario {
  std::string name;
  std::vector<double> core_bias;  ///< arity = core count of the system
};

/// The canonical skews (bias 6:1 toward the hot cores):
///  * "hot-upper-die" — load concentrates on the upper half of the core
///    sites (4-layer: the whole upper core die; 2-layer: the top core row);
///  * "hot-corner"    — load concentrates on two adjacent corner cores.
[[nodiscard]] std::vector<SkewScenario> skewed_workload_scenarios(
    std::size_t layer_pairs);
/// Same skews for an arbitrary core count (custom stacks); equals
/// skewed_workload_scenarios(p) when cores == 8*p.  Requires cores >= 2.
[[nodiscard]] std::vector<SkewScenario> skewed_workload_scenarios_for_cores(
    std::size_t core_count);

/// One named cell configuration of the evaluation.
struct ScenarioSpec {
  /// Registry identity, e.g. "talb-var" or "lb-max-valved/hot-corner".
  std::string name;
  Policy policy = Policy::kTalb;
  CoolingMode cooling = CoolingMode::kLiquidVar;
  /// Route coolant through the valve network (per-cavity steering) instead
  /// of the paper's uniform split.  Liquid cooling only.
  bool valve_network = false;
  /// Named spatial load skew from skewed_workload_scenarios ("" = uniform);
  /// resolved against the target system's core count at bind time.
  std::string skew;
  /// Display label; empty = the paper-style policy_label().
  std::string label;
  /// Stack geometry axis: a stack preset name, a stack-file path, or the
  /// name of a spec embedded in sweep metadata ("" = the config's default
  /// system, i.e. the layer_pairs preset).  Resolved by resolve_stack_axis
  /// at bind time.  Seed-neutral like the other non-workload axes: a
  /// geometry comparison runs all arms on the identical workload trace.
  std::string stack;

  [[nodiscard]] std::string display_label() const;
};

// -- Serialization (common/csv.hpp-style plain rows) --------------------------
[[nodiscard]] const char* policy_name(Policy p);        ///< "lb" / "mig" / "talb"
[[nodiscard]] const char* cooling_name(CoolingMode m);  ///< "air" / "max" / "var"
[[nodiscard]] Policy policy_from_name(std::string_view s);
[[nodiscard]] CoolingMode cooling_from_name(std::string_view s);

[[nodiscard]] const std::vector<std::string>& scenario_csv_header();
[[nodiscard]] std::vector<std::string> to_csv_row(const ScenarioSpec& s);
/// Inverse of to_csv_row; throws ConfigError on malformed rows.
[[nodiscard]] ScenarioSpec scenario_from_csv_row(
    const std::vector<std::string>& row);

/// Bind a scenario onto a configuration: policy, cooling, valve delivery,
/// display label, stack geometry (when the `stack` axis is set, resolved
/// against `stacks` / presets / files and stored in cfg.stack), and (when
/// `skew` is named) the per-core dispatch bias for the resolved system's
/// core count.  Throws ConfigError for an unknown skew or stack name.
void apply_scenario(const ScenarioSpec& s, SimulationConfig& cfg,
                    const std::vector<StackSpec>& stacks = {});

/// The seven bars of Figs. 6-8 in plot order, as registry-named scenarios
/// ("lb-air" ... "talb-var").
[[nodiscard]] std::vector<ScenarioSpec> paper_scenario_grid();

/// Deterministic per-cell RNG seed.  Documented mix:
///
///   mix64 = the SplitMix64 finalizer (Steele et al.; xoshiro's seeder)
///   h0 = mix64(suite_seed)
///   h1 = mix64(h0 ^ (policy * GOLDEN + cooling + 1))
///   seed = mix64(h1 ^ (fnv1a(workload.name) + workload.id))
///
/// The seed depends only on the cell's identity — never on its position in
/// a sweep — so grids can be reordered, sharded, or resumed without moving
/// any cell's random stream; the finalizer avalanches, so adjacent suite
/// seeds or workload ids still give uncorrelated streams.  Deliberately
/// independent of the valve/skew axes: a delivery comparison runs both arms
/// on the identical workload trace.
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t suite_seed, Policy policy,
                                      CoolingMode cooling,
                                      const BenchmarkSpec& workload);
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t suite_seed,
                                      const ScenarioSpec& scenario,
                                      const BenchmarkSpec& workload);

/// Name -> scenario lookup.  The global() registry is pre-populated with
/// the paper grid; experiments register their own specs under new names.
class ScenarioRegistry {
 public:
  /// Empty registry (the global one starts with paper_scenario_grid()).
  ScenarioRegistry() = default;

  [[nodiscard]] static ScenarioRegistry& global();

  /// Register a spec; throws ConfigError on an empty or duplicate name.
  void add(ScenarioSpec spec);
  /// nullptr when absent.  The pointer stays valid across add() calls.
  [[nodiscard]] const ScenarioSpec* find(std::string_view name) const;
  /// Throws ConfigError when absent.
  [[nodiscard]] const ScenarioSpec& at(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

 private:
  std::deque<ScenarioSpec> specs_;  ///< deque: stable references on add()
};

}  // namespace liquid3d
