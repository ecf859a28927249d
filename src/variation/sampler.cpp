#include "variation/sampler.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "common/rng.h"
#include "nbti/rd_model.h"

namespace nbtisim::variation {

VthSampler::VthSampler(const aging::AgingAnalyzer& analyzer, double sigma_vth,
                       std::uint64_t seed)
    : lp_(&analyzer.sta().library().params()),
      rd_(&analyzer.conditions().rd),
      sigma_vth_(sigma_vth),
      seed_(seed),
      fresh_(analyzer.sta().gate_delays(analyzer.conditions().sta_temperature)),
      sens_(lp_->pmos.alpha / (lp_->vdd - lp_->pmos.vth0)),
      ff_nominal_(nbti::field_factor(*rd_, lp_->vdd, lp_->pmos.vth0)) {}

VthSample VthSampler::draw(int s, bool aged) const {
  std::mt19937_64 rng(common::stream_seed(seed_, s));
  std::normal_distribution<double> gauss(0.0, sigma_vth_);
  VthSample x;
  x.offset.resize(fresh_.size());
  for (double& o : x.offset) o = gauss(rng);
  if (aged) {
    x.ff_scale.resize(fresh_.size());
    for (std::size_t g = 0; g < fresh_.size(); ++g) {
      const double ff =
          nbti::field_factor(*rd_, lp_->vdd, lp_->pmos.vth0 + x.offset[g]);
      x.ff_scale[g] = ff_nominal_ > 0.0 ? ff / ff_nominal_ : 1.0;
    }
  }
  return x;
}

void VthSampler::delays(const VthSample& x, const std::vector<double>& dvth,
                        std::vector<double>& out) const {
  out.resize(fresh_.size());
  if (dvth.empty()) {
    for (std::size_t g = 0; g < fresh_.size(); ++g) {
      out[g] = fresh_[g] * (1.0 + sens_ * x.offset[g]);
    }
    return;
  }
  for (std::size_t g = 0; g < fresh_.size(); ++g) {
    const double shift = dvth[g] * x.ff_scale[g];
    out[g] = fresh_[g] * (1.0 + sens_ * (x.offset[g] + shift));
  }
}

double empirical_quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile: q outside [0,1]");
  }
  std::sort(values.begin(), values.end());
  const double idx = q * (values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - lo;
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace nbtisim::variation
