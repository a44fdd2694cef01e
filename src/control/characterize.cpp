#include "control/characterize.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "coolant/microchannel.hpp"

namespace liquid3d {

CharacterizationHarness::CharacterizationHarness(const Stack3D& stack,
                                                 ThermalModelParams thermal_params,
                                                 PowerModelParams power_params,
                                                 const PumpModel& pump,
                                                 FlowDeliveryMode delivery_mode)
    : model_(stack, thermal_params),
      power_(power_params),
      cores_(enumerate_sites(stack, BlockType::kCore)) {
  LIQUID3D_REQUIRE(stack.has_cavities(),
                   "pump-based characterization requires a liquid stack");
  const MicrochannelModel channels(stack.cavity(), thermal_params.coolant,
                                   thermal_params.channel_params);
  delivery_.emplace(pump, delivery_mode, channels, stack.width(), stack.cavity_count());
}

CharacterizationHarness::CharacterizationHarness(const Stack3D& stack,
                                                 ThermalModelParams thermal_params,
                                                 PowerModelParams power_params)
    : model_(stack, thermal_params),
      power_(power_params),
      cores_(enumerate_sites(stack, BlockType::kCore)) {
  LIQUID3D_REQUIRE(!stack.has_cavities(), "this constructor is for air stacks");
}

std::size_t CharacterizationHarness::setting_count() const {
  return delivery_ ? delivery_->setting_count() : 1;
}

void CharacterizationHarness::apply_uniform_power(double utilization) {
  LIQUID3D_REQUIRE(utilization >= 0.0 && utilization <= 1.0,
                   "utilization must be a fraction");
  // Characterize against the worst-case workload composition (maximum
  // switching activity and memory intensity of the Table II set): the LUT
  // must guarantee the target for every workload, at the cost of slight
  // over-cooling for gentler ones.
  constexpr double kWorstCaseActivity = 1.08;
  constexpr double kWorstCaseMemIntensity = 1.0;
  const Stack3D& stack = model_.stack();
  const double active_frac = utilization;  // balanced load: all cores share it
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    const Floorplan& fp = stack.layer(l).floorplan;
    std::vector<double> watts(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      const Block& blk = fp.block(b);
      const double t_blk = model_.block_mean_temperature(l, b);
      switch (blk.type) {
        case BlockType::kCore:
          watts[b] = power_.core_power(utilization > 0.0 ? CoreState::kActive
                                                         : CoreState::kIdle,
                                       utilization, kWorstCaseActivity, t_blk);
          break;
        case BlockType::kL2Cache:
          watts[b] = power_.l2_power(t_blk);
          break;
        case BlockType::kCrossbar:
          watts[b] = power_.crossbar_power(active_frac, kWorstCaseMemIntensity, t_blk);
          break;
        case BlockType::kMisc:
          watts[b] = power_.misc_power(blk.rect.area(), t_blk);
          break;
      }
    }
    model_.set_block_power(l, watts);
  }
}

void CharacterizationHarness::reset() {
  model_.initialize(model_.params().ambient_temperature);
}

double CharacterizationHarness::solve_with_leakage(double utilization) {
  // A diverging leakage loop is physical thermal runaway: it aborts above
  // 400 C and reports that (large) iterate, which the LUT correctly treats
  // as "needs more flow".  The reset keeps the runaway field from seeding
  // the next operating point.
  constexpr double kRunawayC = 400.0;
  status_ = model_.solve_steady_state([&]() {
    apply_uniform_power(utilization);
    return model_.max_temperature() <= kRunawayC;
  });
  const double tmax = model_.max_temperature();
  if (tmax > kRunawayC) reset();
  return tmax;
}

double CharacterizationHarness::steady_tmax(double utilization, std::size_t setting) {
  if (delivery_) {
    model_.set_cavity_flow(delivery_->per_cavity(setting));
  } else {
    LIQUID3D_REQUIRE(setting == 0, "air stacks have a single (no-pump) setting");
  }
  return solve_with_leakage(utilization);
}

double CharacterizationHarness::steady_tmax_at_flow(double utilization,
                                                    VolumetricFlow per_cavity) {
  model_.set_cavity_flow(per_cavity);
  return solve_with_leakage(utilization);
}

double CharacterizationHarness::steady_tmax_at_flows(
    double utilization, const std::vector<VolumetricFlow>& flows) {
  LIQUID3D_REQUIRE(!flows.empty(), "flow vector must not be empty");
  model_.set_cavity_flow(flows);
  return solve_with_leakage(utilization);
}

std::vector<double> CharacterizationHarness::steady_core_temps(double utilization,
                                                               std::size_t setting) {
  (void)steady_tmax(utilization, setting);
  std::vector<double> temps;
  temps.reserve(cores_.size());
  for (const BlockSite& site : cores_) {
    temps.push_back(model_.block_temperature(site.layer, site.block));
  }
  return temps;
}

VolumetricFlow CharacterizationHarness::min_flow_for_target(double utilization,
                                                            double target_c,
                                                            VolumetricFlow lo,
                                                            VolumetricFlow hi) {
  LIQUID3D_REQUIRE(lo < hi, "bisection bounds must be ordered");
  if (steady_tmax_at_flow(utilization, hi) > target_c) return hi;
  if (steady_tmax_at_flow(utilization, lo) <= target_c) return lo;
  VolumetricFlow a = lo;
  VolumetricFlow b = hi;
  for (int iter = 0; iter < 24; ++iter) {
    const VolumetricFlow mid = (a + b) / 2.0;
    if (steady_tmax_at_flow(utilization, mid) <= target_c) {
      b = mid;
    } else {
      a = mid;
    }
    if ((b - a).ml_per_min() < 0.05) break;
  }
  return b;
}

std::vector<std::vector<double>> sample_tmax_grid(const HarnessFactory& make_harness,
                                                  std::size_t setting_count,
                                                  std::size_t utilization_points,
                                                  std::size_t threads) {
  LIQUID3D_REQUIRE(setting_count >= 1, "need at least one pump setting");
  // >= 3 matches FlowLut::from_samples — fail before the sweep, not after.
  LIQUID3D_REQUIRE(utilization_points >= 3, "utilization sweep too coarse");
  std::vector<double> us(utilization_points);
  for (std::size_t i = 0; i < utilization_points; ++i) {
    us[i] = static_cast<double>(i) / static_cast<double>(utilization_points - 1);
  }
  std::vector<std::vector<double>> grid(setting_count,
                                        std::vector<double>(utilization_points));

  if (threads == 0) threads = ThreadPool::default_concurrency();
  const std::size_t workers = std::min(threads, setting_count);

  // Worker h owns one harness and sweeps settings h, h+W, h+2W, ...; each
  // row starts from the ambient field and ascends in utilization, so each
  // solve continues from its neighbour's answer.
  auto sweep = [&](std::size_t h) {
    const std::unique_ptr<CharacterizationHarness> harness = make_harness();
    for (std::size_t s = h; s < setting_count; s += workers) {
      harness->reset();
      for (std::size_t i = 0; i < utilization_points; ++i) {
        grid[s][i] = harness->steady_tmax(us[i], s);
      }
    }
  };

  if (workers <= 1) {
    sweep(0);
    return grid;
  }
  ThreadPool pool(workers);
  pool.parallel_for(0, workers, sweep);
  return grid;
}

FlowLut characterize_flow_lut(const HarnessFactory& make_harness,
                              double target_temperature,
                              std::size_t utilization_points, std::size_t threads) {
  const std::unique_ptr<CharacterizationHarness> probe = make_harness();
  const std::size_t settings = probe->setting_count();
  return FlowLut::from_samples(
      sample_tmax_grid(make_harness, settings, utilization_points, threads),
      target_temperature);
}

CavitySkewGrid sample_cavity_skew_grid(const HarnessFactory& make_harness,
                                       const ValveNetwork& network,
                                       std::size_t setting, double utilization,
                                       std::size_t opening_points,
                                       std::size_t threads) {
  LIQUID3D_REQUIRE(opening_points >= 2, "opening sweep too coarse");
  const std::size_t cavities = network.cavity_count();

  CavitySkewGrid grid;
  grid.openings.resize(opening_points);
  const double lo = network.params().min_opening;
  for (std::size_t i = 0; i < opening_points; ++i) {
    grid.openings[i] =
        lo + (1.0 - lo) * static_cast<double>(i) /
                 static_cast<double>(opening_points - 1);
  }
  grid.tmax.assign(cavities, std::vector<double>(opening_points));

  if (threads == 0) threads = ThreadPool::default_concurrency();
  const std::size_t workers = std::min(threads, cavities);

  // Worker h sweeps cavities h, h+W, ...; each cavity row starts from the
  // ambient field and sweeps its openings ascending, ending at the
  // fully-open (uniform) point shared by every cavity row.
  auto sweep = [&](std::size_t h) {
    const std::unique_ptr<CharacterizationHarness> harness = make_harness();
    std::vector<double> openings(cavities, 1.0);
    for (std::size_t k = h; k < cavities; k += workers) {
      harness->reset();
      for (std::size_t i = 0; i < opening_points; ++i) {
        openings[k] = grid.openings[i];
        grid.tmax[k][i] = harness->steady_tmax_at_flows(
            utilization, network.flows(setting, openings));
      }
      openings[k] = 1.0;
    }
  };

  if (workers <= 1) {
    sweep(0);
    return grid;
  }
  ThreadPool pool(workers);
  pool.parallel_for(0, workers, sweep);
  return grid;
}

}  // namespace liquid3d
