/// \file pareto_analysis.cpp
/// \brief "pareto": the standby-vector leakage/degradation Pareto front as a
///        grid analysis — front extremes, the balanced pick, and the
///        trade-off depth per (netlist, condition), plus the full front as a
///        structured "front" payload for the query layer.

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/pareto.h"

namespace nbtisim::analysis {
namespace {

class ParetoAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "pareto"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p) + ",ps" + std::to_string(p.pareto_samples) +
           ",pr" + std::to_string(p.pareto_rounds) + ",pf" +
           std::to_string(p.pareto_flips);
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    opt::ParetoParams pp;
    pp.random_samples = p.pareto_samples;
    pp.improve_rounds = p.pareto_rounds;
    pp.flips_per_member = p.pareto_flips;
    pp.seed = p.seed;
    pp.n_threads = ctx.n_threads();
    const opt::ParetoResult r =
        opt::pareto_standby_vectors(ctx.aging(), ctx.standby_leakage(), pp);
    const opt::ParetoPoint& balanced = r.pick(0.5);
    // Full front (ascending leakage) as a structured payload; the scalar
    // summaries above it keep the legacy flat contract.
    common::json::Array front;
    front.reserve(r.front.size());
    for (const opt::ParetoPoint& pt : r.front) {
      front.push_back(common::json::Value(common::json::Object{
          {"leak_ua", common::json::Value(1e6 * pt.leakage)},
          {"deg_pct", common::json::Value(pt.degradation_percent)}}));
    }
    return {{"front_size", static_cast<double>(r.front.size())},
            {"evaluated", static_cast<double>(r.evaluated)},
            {"min_leak_ua", 1e6 * r.min_leakage().leakage},
            {"min_leak_deg_pct", r.min_leakage().degradation_percent},
            {"min_deg_pct", r.min_degradation().degradation_percent},
            {"min_deg_leak_ua", 1e6 * r.min_degradation().leakage},
            {"balanced_leak_ua", 1e6 * balanced.leakage},
            {"balanced_deg_pct", balanced.degradation_percent},
            {"deg_range_pct", r.degradation_range()},
            {"front", common::json::Value(std::move(front))}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_pareto_analysis() {
  return std::make_unique<ParetoAnalysis>();
}

}  // namespace nbtisim::analysis
