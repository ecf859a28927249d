#include "variation/criticality.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/pool.h"
#include "variation/sampler.h"

namespace nbtisim::variation {

std::vector<int> CriticalityResult::critical_set(double threshold) const {
  std::vector<int> gates;
  for (int gi = 0; gi < static_cast<int>(probability.size()); ++gi) {
    if (probability[gi] >= threshold) gates.push_back(gi);
  }
  std::sort(gates.begin(), gates.end(), [this](int a, int b) {
    return probability[a] > probability[b];
  });
  return gates;
}

CriticalityResult gate_criticality(const aging::AgingAnalyzer& analyzer,
                                   const CriticalityParams& params) {
  if (params.samples < 2 || params.sigma_vth < 0.0 || params.total_time < 0.0) {
    throw std::invalid_argument("gate_criticality: bad parameters");
  }
  const sta::StaEngine& sta = analyzer.sta();
  const netlist::Netlist& nl = sta.netlist();
  const VthSampler sampler(analyzer, params.sigma_vth, params.seed);
  std::vector<double> dvth_nominal;
  if (params.aged) {
    dvth_nominal = analyzer.gate_dvth(aging::StandbyPolicy::all_stressed(),
                                      params.total_time);
  }

  CriticalityResult result;
  std::vector<double> hits(nl.num_gates(), 0.0);
  std::set<netlist::NodeId> critical_pos;

  // Per-sample critical paths land in disjoint slots; the hit-count and
  // distinct-PO reductions then run serially in sample order, making the
  // result bit-identical for every n_threads.
  std::vector<std::vector<netlist::NodeId>> sample_paths(params.samples);
  common::parallel_for(params.samples, params.n_threads, [&](int s) {
    std::vector<double> delays;
    sampler.delays(sampler.draw(s, params.aged), dvth_nominal, delays);
    sample_paths[s] = sta.analyze(delays).critical_path;
  });
  for (const std::vector<netlist::NodeId>& path : sample_paths) {
    for (netlist::NodeId node : path) {
      const int gi = nl.driver_gate(node);
      if (gi >= 0) hits[gi] += 1.0;
    }
    if (!path.empty()) critical_pos.insert(path.back());
  }

  result.probability.resize(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    result.probability[gi] = hits[gi] / params.samples;
  }
  result.distinct_paths = static_cast<int>(critical_pos.size());
  return result;
}

}  // namespace nbtisim::variation
