#include "sim/characterization_cache.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/identity_key.hpp"
#include "control/characterize.hpp"
#include "coolant/pump.hpp"

namespace liquid3d {

namespace {

// Every parameter the characterization harness consumes, as raw bits: the
// stack (by its canonical fingerprint, so any two configurations that build
// the same stack — via layer_pairs, a preset spec, or a stack file — share
// artifacts), the cooling and delivery modes, and every ThermalModelParams
// and PowerModelParams field.
std::string system_key(const char* tag, const SimulationConfig& cfg, bool liquid) {
  const Stack3D stack = make_simulation_stack(cfg);
  std::string key = tag;
  key.reserve(512);
  append_bits(key, stack_fingerprint(stack));
  append_bits(key, liquid);
  append_bits(key, cfg.delivery_mode);
  append_fields(key, cfg.thermal);
  append_fields(key, cfg.power);
  return key;
}

std::shared_ptr<const FlowLut> build_flow_lut(const SimulationConfig& cfg) {
  LIQUID3D_REQUIRE(cfg.cooling != CoolingMode::kAir,
                   "flow LUT only applies to liquid cooling");
  const Stack3D stack = make_simulation_stack(cfg);
  // One independent harness (and thermal model) per characterization worker.
  auto factory = [&cfg, &stack]() {
    return std::make_unique<CharacterizationHarness>(
        stack, cfg.thermal, cfg.power, PumpModel::laing_ddc(), cfg.delivery_mode);
  };
  return std::make_shared<const FlowLut>(
      characterize_flow_lut(factory, cfg.metrics.target_c - cfg.manager.lut_margin_c,
                            25));
}

std::shared_ptr<const TalbWeightTable> build_talb_weights(
    const SimulationConfig& cfg) {
  const Stack3D stack = make_simulation_stack(cfg);
  const bool liquid = cfg.cooling != CoolingMode::kAir;
  std::optional<CharacterizationHarness> harness;
  if (liquid) {
    harness.emplace(stack, cfg.thermal, cfg.power, PumpModel::laing_ddc(),
                    cfg.delivery_mode);
  } else {
    harness.emplace(stack, cfg.thermal, cfg.power);
  }
  const std::size_t setting = liquid ? harness->setting_count() / 2 : 0;
  const double t_ref =
      liquid ? cfg.thermal.inlet_temperature : cfg.thermal.ambient_temperature;

  const std::vector<double> levels = {0.3, 0.6, 0.9};
  std::vector<double> tmax_at_level;
  std::vector<std::vector<double>> weights_at_level;
  for (double u : levels) {
    const std::vector<double> temps = harness->steady_core_temps(u, setting);
    tmax_at_level.push_back(*std::max_element(temps.begin(), temps.end()));
    weights_at_level.push_back(TalbWeightTable::weights_from_temps(temps, t_ref));
  }

  std::vector<TalbWeightTable::Band> bands;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double upper = (i + 1 < levels.size())
                             ? 0.5 * (tmax_at_level[i] + tmax_at_level[i + 1])
                             : std::numeric_limits<double>::infinity();
    bands.push_back({upper, weights_at_level[i]});
  }
  return std::make_shared<const TalbWeightTable>(std::move(bands));
}

}  // namespace

std::string CharacterizationCache::flow_lut_key(const SimulationConfig& cfg) {
  std::string key = system_key("lut:", cfg, /*liquid=*/true);
  append_bits(key, cfg.metrics.target_c - cfg.manager.lut_margin_c);
  return key;
}

std::string CharacterizationCache::talb_key(const SimulationConfig& cfg) {
  return system_key("talb:", cfg, cfg.cooling != CoolingMode::kAir);
}

std::shared_ptr<const FlowLut> CharacterizationCache::flow_lut(
    const SimulationConfig& cfg) {
  // Validate before the lookup: the key tags every flow LUT as liquid, so an
  // air configuration must fail here rather than silently hit a cached
  // liquid entry built from the same thermal/power parameters.
  LIQUID3D_REQUIRE(cfg.cooling != CoolingMode::kAir,
                   "flow LUT only applies to liquid cooling");
  return luts_.get(flow_lut_key(cfg), [&cfg] { return build_flow_lut(cfg); });
}

std::shared_ptr<const TalbWeightTable> CharacterizationCache::talb_weights(
    const SimulationConfig& cfg) {
  return weights_.get(talb_key(cfg), [&cfg] { return build_talb_weights(cfg); });
}

CharacterizationCache& CharacterizationCache::global() {
  static CharacterizationCache cache;
  return cache;
}

std::size_t CharacterizationCache::size() const {
  return luts_.size() + weights_.size();
}

void CharacterizationCache::clear() {
  luts_.clear();
  weights_.clear();
}

}  // namespace liquid3d
