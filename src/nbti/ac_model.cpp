#include "nbti/ac_model.h"

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
  double s = std::pow(duty, 0.25) / (1.0 + beta);
  const double step = duty / (4.0 * (1.0 + beta));
  for (std::int64_t i = 1; i < n_cycles; ++i) {
    s += step / (s * s * s);
  }
  return s;
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
  double s = std::pow(duty, 0.25) / (1.0 + beta);
  const std::int64_t iters =
      static_cast<std::int64_t>(std::min(n_cycles, kSnExactCycles));
  for (std::int64_t i = 1; i < iters; ++i) {
    s += step / (s * s * s);
  }
  const double remaining = n_cycles - static_cast<double>(iters);
  if (remaining <= 0.0) return s;
  const double s4 = s * s * s * s + remaining * 4.0 * step;
  return quarter_root(s4);
}

SnPrefix make_sn_prefix(double duty) {
  check_duty(duty);
  SnPrefix prefix;
  prefix.duty = duty;
  if (duty == 0.0) return prefix;
  const double beta = ac_beta(duty);
  prefix.step = duty / (4.0 * (1.0 + beta));
  // Same operation sequence as sn_closed's head with n_cycles >=
  // kSnExactCycles — the bit-identity contract depends on it.
  double s = std::pow(duty, 0.25) / (1.0 + beta);
  for (std::int64_t i = 1; i < static_cast<std::int64_t>(kSnExactCycles);
       ++i) {
    s += prefix.step / (s * s * s);
  }
  prefix.s = s;
  return prefix;
}

double sn_closed(const SnPrefix& prefix, double n_cycles) {
  if (n_cycles < 1.0) throw std::invalid_argument("sn_closed: n_cycles < 1");
  if (prefix.duty == 0.0) return 0.0;
  if (n_cycles < kSnExactCycles) {
    // Short horizons never reach the precomputed point; the recursion here
    // is as cheap as the prefix would be.
    return sn_closed(prefix.duty, n_cycles);
  }
  const double remaining = n_cycles - kSnExactCycles;
  if (remaining <= 0.0) return prefix.s;
  const double s4 =
      prefix.s * prefix.s * prefix.s * prefix.s + remaining * 4.0 * prefix.step;
  return quarter_root(s4);
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
