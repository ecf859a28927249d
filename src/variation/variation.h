/// \file variation.h
/// \brief Process-variation-aware aged-delay distributions — paper Fig. 12
///        and the Section 5 discussion of [51].
///
/// With per-gate Gaussian Vth variation the circuit delay becomes a
/// distribution that shifts upward over the lifetime.  Two effects interact:
///   - a gate with lower Vth is faster but ages *more* (the oxide-field
///     factor of eq. 23 grows as Vgs - Vth grows), and vice versa;
///   - hence aging partially compensates static variation and the delay
///     variance shrinks slightly while the mean grows ([51]).
/// Each Monte-Carlo sample draws a per-gate Vth offset, scales the nominal
/// per-gate dVth by the field-factor ratio, and re-runs STA.
#pragma once

#include <cstdint>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::variation {

/// Monte-Carlo knobs.
struct VariationParams {
  double sigma_vth = 0.015;  ///< per-gate Vth standard deviation [V]
  int samples = 500;
  std::uint64_t seed = 42;
  /// Worker threads for per-sample evaluation; 0 = hardware concurrency.
  /// Every sample owns an independent SplitMix64-decorrelated RNG stream,
  /// so results are bit-identical for every value — purely a speed knob
  /// (same contract as AgingConditions::n_threads).
  int n_threads = 0;
};

/// Summary statistics of a sampled delay distribution.
struct DelayDistribution {
  std::vector<double> delays;  ///< per-sample circuit delay [s]

  double mean() const;
  double stddev() const;
  /// mean - 3 sigma / mean + 3 sigma bounds (the paper's Fig. 12 markers).
  double lower3() const { return mean() - 3.0 * stddev(); }
  double upper3() const { return mean() + 3.0 * stddev(); }
  /// Empirical quantile in [0, 1].
  double quantile(double q) const;
};

/// Variation-aware aging Monte-Carlo bound to an AgingAnalyzer.
class MonteCarloAging {
 public:
  MonteCarloAging(const aging::AgingAnalyzer& analyzer, VariationParams params);

  const VariationParams& params() const { return params_; }

  /// Delay distribution of the *fresh* circuit under Vth variation.
  DelayDistribution fresh_distribution() const;

  /// Delay distribution after \p total_time seconds of aging under
  /// \p policy, with per-sample aging/variation interaction.
  DelayDistribution aged_distribution(const aging::StandbyPolicy& policy,
                                      double total_time) const;

 private:
  const aging::AgingAnalyzer* analyzer_;
  VariationParams params_;
};

}  // namespace nbtisim::variation
