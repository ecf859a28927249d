#include "variation/lifetime.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/pool.h"
#include "variation/sampler.h"

namespace nbtisim::variation {

double LifetimeResult::failure_fraction_at(double t) const {
  if (lifetimes.empty()) return 0.0;
  int failed = 0;
  for (double l : lifetimes) failed += l <= t ? 1 : 0;
  return static_cast<double>(failed) / lifetimes.size();
}

double LifetimeResult::quantile(double q) const {
  return empirical_quantile(lifetimes, q);
}

LifetimeResult lifetime_distribution(const aging::AgingAnalyzer& analyzer,
                                     const aging::StandbyPolicy& policy,
                                     const LifetimeParams& params) {
  // Written so that NaN fails each check; an infinite value is rejected
  // too, since it would reach the report as a silent all-survive or NaN.
  if (!(params.spec_margin_percent > 0.0) ||
      std::isinf(params.spec_margin_percent)) {
    throw std::invalid_argument(
        "lifetime_distribution: spec_margin_percent must be finite and > 0, "
        "got " +
        std::to_string(params.spec_margin_percent));
  }
  if (!(params.sigma_vth >= 0.0) || std::isinf(params.sigma_vth)) {
    throw std::invalid_argument(
        "lifetime_distribution: sigma_vth must be finite and >= 0, got " +
        std::to_string(params.sigma_vth));
  }
  if (!(params.max_time > 0.0) || std::isinf(params.max_time)) {
    throw std::invalid_argument(
        "lifetime_distribution: max_time must be finite and > 0, got " +
        std::to_string(params.max_time));
  }
  if (params.samples < 2 || params.time_grid_points < 4) {
    throw std::invalid_argument(
        "lifetime_distribution: need samples >= 2 and time_grid_points >= 4");
  }
  const sta::StaEngine& sta = analyzer.sta();
  const VthSampler sampler(analyzer, params.sigma_vth, params.seed);

  std::vector<double> nominal_scratch;
  const double nominal =
      sta.critical_delay(sampler.fresh_delays(), nominal_scratch);
  const double spec = nominal * (1.0 + params.spec_margin_percent / 100.0);

  // Nominal per-gate dVth on a geometric time grid.
  const int n_grid = params.time_grid_points;
  std::vector<double> grid_time(n_grid);
  std::vector<std::vector<double>> grid_dvth(n_grid);
  const double t_min = params.max_time / std::pow(2.0, n_grid - 1.0) * 2.0;
  const double log_step = std::log(params.max_time / t_min) / (n_grid - 1);
  for (int k = 0; k < n_grid; ++k) {
    grid_time[k] = t_min * std::exp(log_step * k);
    grid_dvth[k] = analyzer.gate_dvth(policy, grid_time[k]);
  }

  LifetimeResult result;
  result.max_time = params.max_time;
  result.lifetimes.resize(params.samples);

  // Samples are independent streams writing disjoint slots: bit-identical
  // for every n_threads.
  common::parallel_for(params.samples, params.n_threads, [&](int s) {
    const VthSample sample = sampler.draw(s, true);

    // Memoized per grid point: the bisection endpoints are re-read during
    // the final interpolation, and each STA pass costs a full circuit walk.
    std::vector<double> delay_cache(n_grid, -1.0);
    std::vector<double> delays;
    std::vector<double> arrival_scratch;
    auto delay_at_grid = [&](int k) {
      if (delay_cache[k] >= 0.0) return delay_cache[k];
      sampler.delays(sample, grid_dvth[k], delays);
      // Arrival-only STA: same max_delay bitwise, no TimingResult
      // allocation inside the per-sample bisection loop.
      return delay_cache[k] = sta.critical_delay(delays, arrival_scratch);
    };

    // Bisection over the grid (delay is monotone in time).
    if (delay_at_grid(n_grid - 1) <= spec) {
      result.lifetimes[s] = params.max_time;  // survivor
      return;
    }
    if (delay_at_grid(0) > spec) {
      result.lifetimes[s] = grid_time[0];  // dead (nearly) on arrival
      return;
    }
    int lo = 0, hi = n_grid - 1;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (delay_at_grid(mid) > spec) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    // Log-linear interpolation between the bracketing grid points.
    const double d_lo = delay_at_grid(lo);
    const double d_hi = delay_at_grid(hi);
    const double frac = d_hi > d_lo ? (spec - d_lo) / (d_hi - d_lo) : 0.5;
    result.lifetimes[s] =
        grid_time[lo] * std::pow(grid_time[hi] / grid_time[lo], frac);
  });
  return result;
}

}  // namespace nbtisim::variation
