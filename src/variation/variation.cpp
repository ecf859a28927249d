#include "variation/variation.h"

#include <cmath>
#include <stdexcept>

#include "common/pool.h"
#include "variation/sampler.h"

namespace nbtisim::variation {

double DelayDistribution::mean() const {
  if (delays.empty()) return 0.0;
  double sum = 0.0;
  for (double d : delays) sum += d;
  return sum / delays.size();
}

double DelayDistribution::stddev() const {
  if (delays.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double d : delays) acc += (d - m) * (d - m);
  return std::sqrt(acc / (delays.size() - 1));
}

double DelayDistribution::quantile(double q) const {
  return empirical_quantile(delays, q);
}

MonteCarloAging::MonteCarloAging(const aging::AgingAnalyzer& analyzer,
                                 VariationParams params)
    : analyzer_(&analyzer), params_(params) {
  if (params_.samples < 2 || params_.sigma_vth < 0.0) {
    throw std::invalid_argument("MonteCarloAging: bad parameters");
  }
}

DelayDistribution MonteCarloAging::fresh_distribution() const {
  const VthSampler sampler(*analyzer_, params_.sigma_vth, params_.seed);
  const sta::StaEngine& sta = analyzer_->sta();

  // Samples are independent streams writing disjoint slots: bit-identical
  // for every n_threads.
  DelayDistribution dist;
  dist.delays.resize(params_.samples);
  common::parallel_for(params_.samples, params_.n_threads, [&](int s) {
    std::vector<double> delays;
    sampler.delays(sampler.draw(s, false), {}, delays);
    dist.delays[s] = sta.analyze(delays).max_delay;
  });
  return dist;
}

DelayDistribution MonteCarloAging::aged_distribution(
    const aging::StandbyPolicy& policy, double total_time) const {
  const VthSampler sampler(*analyzer_, params_.sigma_vth, params_.seed);
  const sta::StaEngine& sta = analyzer_->sta();
  const std::vector<double> dvth_nominal =
      analyzer_->gate_dvth(policy, total_time);

  DelayDistribution dist;
  dist.delays.resize(params_.samples);
  common::parallel_for(params_.samples, params_.n_threads, [&](int s) {
    std::vector<double> delays;
    sampler.delays(sampler.draw(s, true), dvth_nominal, delays);
    dist.delays[s] = sta.analyze(delays).max_delay;
  });
  return dist;
}

}  // namespace nbtisim::variation
