#include "nbti/ac_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nbtisim::nbti {
namespace {

// Written so that NaN fails it: a NaN duty would otherwise run the S_n
// recursion to NaN and become a key of AgingAnalyzer's duty memo.
void check_duty(double duty) {
  if (!(duty >= 0.0 && duty <= 1.0)) {
    throw std::invalid_argument("AC stress duty must lie in [0, 1], got " +
                                std::to_string(duty));
  }
}

// Applies eq. (10) to S after \p from cycles until it is S after \p to
// cycles.  Every evaluation of the recursion goes through this loop, so a
// state resumed from a checkpoint sees the exact same operations.
double advance_sn(double s, double step, std::int64_t from, std::int64_t to) {
  for (std::int64_t i = from; i < to; ++i) s += step / (s * s * s);
  return s;
}

// The telescoped tail: S^4 grows by 4 * step per cycle for the \p remaining
// (possibly fractional) cycles after the exact head that ended at \p s.
double telescope(double s, double step, double remaining) {
  if (remaining <= 0.0) return s;
  return quarter_root(s * s * s * s + remaining * 4.0 * step);
}

}  // namespace

double ac_beta(double duty) {
  check_duty(duty);
  return std::sqrt((1.0 - duty) / 2.0);
}

double sn_exact(double duty, std::int64_t n_cycles) {
  check_duty(duty);
  if (n_cycles < 1) throw std::invalid_argument("sn_exact: n_cycles < 1");
  if (duty == 0.0) return 0.0;
  const double beta = ac_beta(duty);
  const double step = duty / (4.0 * (1.0 + beta));
  return advance_sn(std::pow(duty, 0.25) / (1.0 + beta), step, 1, n_cycles);
}

double sn_closed(double duty, double n_cycles) {
  check_duty(duty);
  if (n_cycles < 1.0) throw std::invalid_argument("sn_closed: n_cycles < 1");
  if (duty == 0.0) return 0.0;
  const double beta = ac_beta(duty);
  const double step = duty / (4.0 * (1.0 + beta));
  // Hybrid evaluation: run the exact recursion for the first cycles (where
  // the telescoped form's O(log n / n) error is visible), then telescope the
  // long tail where S^4 grows by 4*step per cycle to high accuracy.
  const std::int64_t iters =
      static_cast<std::int64_t>(std::min(n_cycles, kSnExactCycles));
  const double s =
      advance_sn(std::pow(duty, 0.25) / (1.0 + beta), step, 1, iters);
  return telescope(s, step, n_cycles - static_cast<double>(iters));
}

SnPrefix make_sn_prefix(double duty) {
  check_duty(duty);
  SnPrefix prefix;
  prefix.duty = duty;
  if (duty == 0.0) return prefix;
  const double beta = ac_beta(duty);
  prefix.step = duty / (4.0 * (1.0 + beta));
  // Same operation sequence as sn_closed's head with n_cycles >=
  // kSnExactCycles — the bit-identity contract depends on it — recording
  // the state at each checkpoint cycle on the way.
  constexpr auto kHead = static_cast<std::int64_t>(kSnExactCycles);
  double s = std::pow(duty, 0.25) / (1.0 + beta);
  for (int k = 0; k < kSnCheckpoints; ++k) {
    prefix.checkpoint[k] = s;
    const std::int64_t from = 1 + std::int64_t{k} * kSnCheckpointStride;
    s = advance_sn(s, prefix.step, from,
                   std::min(kHead, from + kSnCheckpointStride));
  }
  prefix.s = s;
  return prefix;
}

double sn_closed(const SnPrefix& prefix, double n_cycles) {
  if (n_cycles < 1.0) throw std::invalid_argument("sn_closed: n_cycles < 1");
  if (prefix.duty == 0.0) return 0.0;
  if (n_cycles < kSnExactCycles) {
    // Resume from the last checkpoint at or below the head's length.
    const auto iters = static_cast<std::int64_t>(n_cycles);
    const std::int64_t k = (iters - 1) / kSnCheckpointStride;
    const double s = advance_sn(prefix.checkpoint[k], prefix.step,
                                1 + k * kSnCheckpointStride, iters);
    return telescope(s, prefix.step, n_cycles - static_cast<double>(iters));
  }
  return telescope(prefix.s, prefix.step, n_cycles - kSnExactCycles);
}

double ac_delta_vth(const RdParams& p, double temp_k, const AcStress& stress,
                    double total_time, double vgs, double vth,
                    AcEvalMethod method) {
  check_duty(stress.duty);
  if (stress.period <= 0.0) {
    throw std::invalid_argument("ac_delta_vth: non-positive period");
  }
  if (total_time < 0.0) {
    throw std::invalid_argument("ac_delta_vth: negative total time");
  }
  if (stress.duty == 0.0 || total_time == 0.0) return 0.0;
  if (stress.duty == 1.0) return dc_delta_vth(p, temp_k, total_time, vgs, vth);

  const double n = std::max(1.0, total_time / stress.period);
  double sn = 0.0;
  switch (method) {
    case AcEvalMethod::ClosedForm:
      sn = sn_closed(stress.duty, n);
      break;
    case AcEvalMethod::ExactRecursion:
      sn = sn_exact(stress.duty, static_cast<std::int64_t>(std::llround(n)));
      break;
  }
  return kv_at(p, temp_k, vgs, vth) * sn * std::pow(stress.period, 0.25);
}

double simulate_cycles(const RdParams& p, double temp_k, const AcStress& stress,
                       std::int64_t n_cycles, double vgs, double vth) {
  check_duty(stress.duty);
  if (n_cycles < 0) throw std::invalid_argument("simulate_cycles: n < 0");
  const double kv = kv_at(p, temp_k, vgs, vth);
  if (kv <= 0.0 || stress.duty == 0.0) return 0.0;

  const double t_stress = stress.duty * stress.period;
  const double t_recover = (1.0 - stress.duty) * stress.period;
  double dvth = 0.0;
  double cumulative_stress = 0.0;
  for (std::int64_t i = 0; i < n_cycles; ++i) {
    // Stress phase: resume the DC t^(1/4) law from the equivalent time that
    // would have produced the current dVth.
    const double t0 = std::pow(dvth / kv, 4.0);
    cumulative_stress += t_stress;
    dvth = kv * std::pow(t0 + t_stress, 0.25);
    // Recovery phase (eq. 6), referenced to cumulative stress time.
    dvth *= recovery_factor(t_recover, cumulative_stress);
  }
  return dvth;
}

std::vector<std::pair<double, double>> ac_delta_vth_series(
    const RdParams& p, double temp_k, const AcStress& stress, double t_min,
    double t_max, int n_points, double vgs, double vth) {
  if (n_points < 2) throw std::invalid_argument("ac_delta_vth_series: n_points < 2");
  if (t_min <= 0.0 || t_max <= t_min) {
    throw std::invalid_argument("ac_delta_vth_series: bad time range");
  }
  std::vector<std::pair<double, double>> out;
  out.reserve(n_points);
  const double log_step = std::log(t_max / t_min) / (n_points - 1);
  for (int i = 0; i < n_points; ++i) {
    const double t = t_min * std::exp(log_step * i);
    out.emplace_back(t, ac_delta_vth(p, temp_k, stress, t, vgs, vth));
  }
  return out;
}

}  // namespace nbtisim::nbti
