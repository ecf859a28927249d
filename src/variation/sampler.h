/// \file sampler.h
/// \brief The per-gate Vth-variation model every Monte-Carlo layer samples
///        (fresh/aged delay distributions, lifetimes, gate criticality).
///
/// Sample s draws one Gaussian Vth offset per gate, in gate order, from the
/// stream common::stream_seed(seed, s), so samples run in any order and
/// still match the serial run bit for bit. A gate's delay moves by
/// sens * (offset + dVth), sens = alpha / (Vdd - Vth0) (eq. 22, first
/// order); an aged gate's nominal dVth is scaled by the field-factor ratio
/// of eq. (23) at its shifted threshold (low-Vth samples age faster).
#pragma once

#include <cstdint>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::variation {

/// One Monte-Carlo sample of the per-gate threshold variation.
struct VthSample {
  std::vector<double> offset;    ///< per-gate Vth offset [V]
  std::vector<double> ff_scale;  ///< per-gate field-factor ratio vs the
                                 ///< nominal device; empty for fresh draws
};

/// Draws VthSamples and turns them into perturbed per-gate delays for the
/// circuit of one AgingAnalyzer.
class VthSampler {
 public:
  VthSampler(const aging::AgingAnalyzer& analyzer, double sigma_vth,
             std::uint64_t seed);

  /// Nominal fresh per-gate delays at the analyzer's STA temperature [s].
  const std::vector<double>& fresh_delays() const { return fresh_; }

  /// Draws sample \p s; \p aged also computes the field-factor ratios that
  /// delays() needs for a non-empty dVth.
  VthSample draw(int s, bool aged) const;

  /// Per-gate delays of sample \p x into \p out, with the nominal per-gate
  /// shift \p dvth [V] — empty for the fresh circuit, otherwise \p x must
  /// be an aged draw.
  void delays(const VthSample& x, const std::vector<double>& dvth,
              std::vector<double>& out) const;

 private:
  const tech::LibraryParams* lp_;
  const nbti::RdParams* rd_;
  double sigma_vth_;
  std::uint64_t seed_;
  std::vector<double> fresh_;
  double sens_;        ///< relative delay change per volt of Vth shift
  double ff_nominal_;  ///< field factor of the nominal device
};

/// Empirical quantile of \p values at \p q in [0, 1], interpolating
/// linearly between order statistics.
/// \throws std::logic_error when \p values is empty
/// \throws std::invalid_argument when \p q is outside [0, 1]
double empirical_quantile(std::vector<double> values, double q);

}  // namespace nbtisim::variation
