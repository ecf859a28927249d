/// \file lifetime_analysis.cpp
/// \brief "lifetime": Monte-Carlo time-to-failure distribution (Fig. 12
///        inverse).

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "tech/units.h"
#include "variation/lifetime.h"

namespace nbtisim::analysis {
namespace {

class LifetimeAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "lifetime"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p) + ",mc" + std::to_string(p.samples) +
           ",margin" + fmt_g(p.spec_margin);
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    variation::LifetimeParams lt;
    lt.spec_margin_percent = p.spec_margin;
    lt.samples = p.samples;
    lt.seed = p.seed;
    lt.n_threads = ctx.n_threads();
    const variation::LifetimeResult r = variation::lifetime_distribution(
        ctx.aging(), aging::StandbyPolicy::all_stressed(), lt);
    return {{"median_years", r.quantile(0.5) / kSecondsPerYear},
            {"p01_years", r.quantile(0.01) / kSecondsPerYear},
            {"fail_at_horizon_pct",
             100.0 * r.failure_fraction_at(ctx.horizon())},
            {"survivor_pct", 100.0 * r.survivor_fraction()}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_lifetime_analysis() {
  return std::make_unique<LifetimeAnalysis>();
}

}  // namespace nbtisim::analysis
