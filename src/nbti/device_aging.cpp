#include "nbti/device_aging.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace nbtisim::nbti {

double DeviceAging::eval(const DeviceStress& stress,
                         const ModeSchedule& schedule, double total_time,
                         bool worst_case_temp) const {
  if (total_time < 0.0) {
    throw std::invalid_argument("DeviceAging: negative total time");
  }
  if (total_time == 0.0) return 0.0;

  ModeSchedule sched = schedule;
  if (worst_case_temp) sched.temp_standby = sched.temp_active;

  const EquivalentCycle eq =
      equivalent_cycle(params_, stress, sched, scale_recovery_);
  if (eq.stress_time <= 0.0) return 0.0;

  const double n_cycles = total_time / sched.period();
  const AcStress ac{eq.duty(), eq.period()};
  // The AC model consumes (pattern, total equivalent time); keep the cycle
  // count identical to the wall-clock cycle count.
  const double total_equivalent = n_cycles * eq.period();
  return ac_delta_vth(params_, sched.temp_active, ac, total_equivalent,
                      stress.vgs, stress.vth0, method_);
}

double DeviceAging::delta_vth(const DeviceStress& stress,
                              const ModeSchedule& schedule,
                              double total_time) const {
  return eval(stress, schedule, total_time, /*worst_case_temp=*/false);
}

DeviceAging::StressContext DeviceAging::context_without_prefix(
    const DeviceStress& stress, const ModeSchedule& schedule) const {
  StressContext ctx;
  ctx.schedule_period = schedule.period();
  ctx.temp_active = schedule.temp_active;
  ctx.vgs = stress.vgs;
  ctx.vth0 = stress.vth0;

  const EquivalentCycle eq =
      equivalent_cycle(params_, stress, schedule, scale_recovery_);
  if (eq.stress_time <= 0.0) {
    ctx.always_zero = true;
    return ctx;
  }
  ctx.eq_period = eq.period();
  ctx.ac = AcStress{eq.duty(), eq.period()};
  if (ctx.ac.period <= 0.0) {
    throw std::invalid_argument("make_context: non-positive period");
  }
  ctx.kv = kv_at(params_, ctx.temp_active, ctx.vgs, ctx.vth0);
  ctx.period_pow = std::pow(ctx.ac.period, 0.25);
  return ctx;
}

DeviceAging::StressContext DeviceAging::make_context(
    const DeviceStress& stress, const ModeSchedule& schedule) const {
  StressContext ctx = context_without_prefix(stress, schedule);
  if (!ctx.always_zero) ctx.prefix = make_sn_prefix(ctx.ac.duty);
  return ctx;
}

DeviceAging::StressContext DeviceAging::make_context(
    const DeviceStress& stress, const ModeSchedule& schedule,
    const SnPrefix& prefix) const {
  StressContext ctx = context_without_prefix(stress, schedule);
  if (ctx.always_zero) return ctx;
  if (std::bit_cast<std::uint64_t>(prefix.duty) !=
      std::bit_cast<std::uint64_t>(ctx.ac.duty)) {
    throw std::invalid_argument("make_context: S_n prefix is for another duty");
  }
  ctx.prefix = prefix;
  return ctx;
}

double DeviceAging::equivalent_duty(const DeviceStress& stress,
                                    const ModeSchedule& schedule) const {
  const EquivalentCycle eq =
      equivalent_cycle(params_, stress, schedule, scale_recovery_);
  return eq.stress_time <= 0.0 ? 0.0 : eq.duty();
}

double DeviceAging::delta_vth(const StressContext& ctx,
                              double total_time) const {
  if (total_time < 0.0) {
    throw std::invalid_argument("DeviceAging: negative total time");
  }
  if (total_time == 0.0 || ctx.always_zero) return 0.0;

  // Mirror eval() + ac_delta_vth() operation by operation: the precomputed
  // quantities must not change a single rounding step.
  const double n_cycles = total_time / ctx.schedule_period;
  const double total_equivalent = n_cycles * ctx.eq_period;
  if (ctx.ac.duty == 0.0 || total_equivalent == 0.0) return 0.0;
  if (ctx.ac.duty == 1.0) {
    return dc_delta_vth(params_, ctx.temp_active, total_equivalent, ctx.vgs,
                        ctx.vth0);
  }

  const double n = std::max(1.0, total_equivalent / ctx.ac.period);
  double sn = 0.0;
  switch (method_) {
    case AcEvalMethod::ClosedForm:
      sn = sn_closed(ctx.prefix, n);
      break;
    case AcEvalMethod::ExactRecursion:
      sn = sn_exact(ctx.ac.duty, static_cast<std::int64_t>(std::llround(n)));
      break;
  }
  return ctx.kv * sn * ctx.period_pow;
}

double DeviceAging::delta_vth_worst_case_temp(const DeviceStress& stress,
                                              const ModeSchedule& schedule,
                                              double total_time) const {
  return eval(stress, schedule, total_time, /*worst_case_temp=*/true);
}

std::vector<std::pair<double, double>> DeviceAging::delta_vth_series(
    const DeviceStress& stress, const ModeSchedule& schedule, double t_min,
    double t_max, int n_points) const {
  if (n_points < 2) {
    throw std::invalid_argument("delta_vth_series: n_points < 2");
  }
  if (t_min <= 0.0 || t_max <= t_min) {
    throw std::invalid_argument("delta_vth_series: bad time range");
  }
  std::vector<std::pair<double, double>> out;
  out.reserve(n_points);
  const double log_step = std::log(t_max / t_min) / (n_points - 1);
  for (int i = 0; i < n_points; ++i) {
    const double t = t_min * std::exp(log_step * i);
    out.emplace_back(t, delta_vth(stress, schedule, t));
  }
  return out;
}

}  // namespace nbtisim::nbti
