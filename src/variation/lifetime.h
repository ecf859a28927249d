/// \file lifetime.h
/// \brief Lifetime distributions: time-to-timing-failure under process
///        variation and NBTI aging — the inverse question of Fig. 12.
///
/// Fig. 12 asks "what is the delay distribution at time t"; a designer asks
/// "when does each die stop meeting its spec". Per Monte-Carlo sample the
/// aged delay is monotone in time, so the failure time (aged delay crossing
/// spec = fresh nominal * (1 + margin)) is found by bisection on a
/// precomputed nominal dVth(t) grid, scaled per sample by the oxide-field
/// factor like the Fig. 12 machinery.
#pragma once

#include <cstdint>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::variation {

/// Lifetime-analysis knobs.
struct LifetimeParams {
  double spec_margin_percent = 5.0;  ///< failure = delay above fresh nominal
                                     ///< by more than this margin
  double sigma_vth = 0.012;          ///< per-gate Vth variation [V]
  int samples = 200;
  std::uint64_t seed = 42;
  double max_time = 9.5e8;           ///< analysis horizon (~30 years) [s]
  int time_grid_points = 40;         ///< nominal dVth(t) grid resolution
  /// Worker threads for per-sample bisection; 0 = hardware concurrency.
  /// Per-sample SplitMix64 streams make the result bit-identical for every
  /// value (same contract as AgingConditions::n_threads).
  int n_threads = 0;
};

/// Per-sample failure times and summary statistics.
struct LifetimeResult {
  std::vector<double> lifetimes;  ///< per-sample failure time [s];
                                  ///< clipped to max_time for survivors
  double max_time = 0.0;          ///< the horizon used

  /// Fraction of samples that fail within \p t seconds.
  double failure_fraction_at(double t) const;
  /// Empirical lifetime quantile in [0,1] (clipped samples count as
  /// max_time).
  double quantile(double q) const;
  /// Fraction of samples still meeting spec at the horizon.
  double survivor_fraction() const { return 1.0 - failure_fraction_at(max_time * (1.0 - 1e-9)); }
};

/// Computes the lifetime distribution of \p analyzer's circuit under
/// \p policy.
/// \throws std::invalid_argument for bad parameters
LifetimeResult lifetime_distribution(const aging::AgingAnalyzer& analyzer,
                                     const aging::StandbyPolicy& policy,
                                     const LifetimeParams& params = {});

}  // namespace nbtisim::variation
