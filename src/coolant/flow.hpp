// flow.hpp — mapping pump settings to the flow actually delivered per cavity.
//
// Two delivery models are provided:
//
//  * kPaperNominal — the paper's accounting (Sec. III-B): the datasheet flow
//    reduced by a global 50 % loss factor and divided equally over cavities.
//    This reproduces Fig. 3's printed values exactly and is what
//    bench_fig3_pump reports.
//
//  * kPressureLimited — the physically self-consistent interpretation used by
//    the thermal simulation: the flow a 50 µm x 100 µm laminar microchannel
//    actually passes under the pump's head (the paper quotes 300-600 mbar
//    across the settings; with pump affinity laws the head scales with the
//    square of impeller speed, giving ~150-600 mbar over the five settings).
//    The nominal datasheet flows are not sustainable through these channels —
//    at the quoted heads a channel passes ~0.1-0.6 ml/min, not the ~3-16
//    ml/min equal division would suggest.  Using the pressure-limited flow
//    puts the coolant sensible-heat rise (the only flow-dependent term in
//    Eq. 1) in the regime where Fig. 5's 70-90 °C control range exists.
//    docs/reproduction.md discusses this substitution.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "coolant/microchannel.hpp"
#include "coolant/pump.hpp"

namespace liquid3d {

enum class FlowDeliveryMode { kPaperNominal, kPressureLimited };

[[nodiscard]] const char* to_string(FlowDeliveryMode m);

class FlowDelivery {
 public:
  /// channel_length: flow path length through a cavity [m] (the die width).
  FlowDelivery(const PumpModel& pump, FlowDeliveryMode mode,
               const MicrochannelModel& channels, double channel_length,
               std::size_t cavity_count);

  [[nodiscard]] VolumetricFlow per_cavity(std::size_t setting) const {
    return per_cavity_.at(setting);
  }
  [[nodiscard]] VolumetricFlow per_channel(std::size_t setting) const;

  [[nodiscard]] std::size_t setting_count() const { return per_cavity_.size(); }
  [[nodiscard]] FlowDeliveryMode mode() const { return mode_; }
  [[nodiscard]] std::size_t cavity_count() const { return cavity_count_; }

  /// Pump head at a setting [Pa]: linear from kMinHeadPa at the lowest
  /// setting to kMaxHeadPa at the highest (paper: "pressure drop for these
  /// flow rates changes between 300-600 mbar"; affinity-law extrapolation
  /// widens the low end).
  [[nodiscard]] static double head_pa(std::size_t setting, std::size_t setting_count);

  static constexpr double kMinHeadPa = 15000.0;  // 150 mbar
  static constexpr double kMaxHeadPa = 60000.0;  // 600 mbar

 private:
  FlowDeliveryMode mode_;
  std::size_t cavity_count_;
  std::size_t channel_count_;
  std::vector<VolumetricFlow> per_cavity_;
};

}  // namespace liquid3d
