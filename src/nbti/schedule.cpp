#include "nbti/schedule.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace nbtisim::nbti {

ModeSchedule ModeSchedule::from_ras(double active_parts, double standby_parts,
                                    double period_s, double temp_active_k,
                                    double temp_standby_k) {
  if (!std::isfinite(active_parts) || !std::isfinite(standby_parts) ||
      active_parts < 0.0 || standby_parts < 0.0 ||
      active_parts + standby_parts <= 0.0) {
    throw std::invalid_argument("ModeSchedule::from_ras: bad ratio");
  }
  if (!std::isfinite(period_s) || period_s <= 0.0) {
    throw std::invalid_argument("ModeSchedule::from_ras: non-positive period");
  }
  // A NaN or infinite temperature would flow silently through the Arrhenius
  // terms into a 0% or runaway degradation report.
  if (!std::isfinite(temp_active_k) || !std::isfinite(temp_standby_k) ||
      temp_active_k <= 0.0 || temp_standby_k <= 0.0) {
    throw std::invalid_argument(
        "ModeSchedule::from_ras: non-finite or non-positive temperature");
  }
  const double total = active_parts + standby_parts;
  return ModeSchedule{period_s * active_parts / total,
                      period_s * standby_parts / total, temp_active_k,
                      temp_standby_k};
}

EquivalentCycle equivalent_cycle(const RdParams& p, const DeviceStress& stress,
                                 const ModeSchedule& schedule,
                                 bool scale_recovery_with_temp) {
  if (schedule.t_active < 0.0 || schedule.t_standby < 0.0 ||
      schedule.period() <= 0.0) {
    throw std::invalid_argument("equivalent_cycle: bad schedule times");
  }
  // NaN fails both checks: a NaN probability would otherwise yield a
  // context whose dVth is a silent 0.
  if (!(stress.active_stress_prob >= 0.0 && stress.active_stress_prob <= 1.0)) {
    throw std::invalid_argument(
        "equivalent_cycle: stress prob outside [0,1], got " +
        std::to_string(stress.active_stress_prob));
  }
  if (!(stress.standby_stress_fraction <= 1.0)) {
    throw std::invalid_argument(
        "equivalent_cycle: standby stress fraction above 1 or NaN, got " +
        std::to_string(stress.standby_stress_fraction));
  }
  const double d_ratio =
      diffusion_ratio(p, schedule.temp_standby, schedule.temp_active);

  EquivalentCycle eq;
  eq.stress_time = stress.active_stress_prob * schedule.t_active;
  eq.recovery_time = (1.0 - stress.active_stress_prob) * schedule.t_active;
  const double sf = stress.standby_fraction();
  eq.stress_time += sf * schedule.t_standby * d_ratio;
  eq.recovery_time += (1.0 - sf) * schedule.t_standby *
                      (scale_recovery_with_temp ? d_ratio : 1.0);
  return eq;
}

}  // namespace nbtisim::nbti
