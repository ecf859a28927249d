/// \file criticality_analysis.cpp
/// \brief "criticality": per-gate critical-path probability under process
///        variation of the AGED circuit (worst-case standby policy at the
///        condition's horizon) — how concentrated the timing risk is that
///        the sizing / dual-Vth passes must protect.

#include <algorithm>

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "variation/criticality.h"

namespace nbtisim::analysis {
namespace {

class CriticalityAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "criticality"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p) + ",cs" + std::to_string(p.crit_samples) +
           ",csig" + fmt_g(p.crit_sigma);
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    variation::CriticalityParams cp;
    cp.sigma_vth = p.crit_sigma;
    cp.samples = p.crit_samples;
    cp.seed = p.seed;
    cp.aged = true;  // criticality of the circuit the condition produces
    cp.total_time = ctx.horizon();
    cp.n_threads = ctx.n_threads();
    const variation::CriticalityResult r =
        variation::gate_criticality(ctx.aging(), cp);
    const double max_prob =
        r.probability.empty()
            ? 0.0
            : *std::max_element(r.probability.begin(), r.probability.end());
    // Per-gate criticality vector (topological gate order) as a structured
    // payload alongside the scalar summary.
    common::json::Array gate_prob;
    gate_prob.reserve(r.probability.size());
    for (double prob : r.probability) {
      gate_prob.push_back(common::json::Value(prob));
    }
    return {{"distinct_paths", static_cast<double>(r.distinct_paths)},
            {"critical_gates", static_cast<double>(r.critical_set().size())},
            {"max_prob", max_prob},
            {"gate_prob", common::json::Value(std::move(gate_prob))}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_criticality_analysis() {
  return std::make_unique<CriticalityAnalysis>();
}

}  // namespace nbtisim::analysis
