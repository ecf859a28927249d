/// \file ivc_analysis.cpp
/// \brief "ivc": MLV search + IVC/NBTI co-optimization (Table 3).

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/ivc.h"

namespace nbtisim::analysis {
namespace {

class IvcAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "ivc"; }

  std::string fingerprint(const Params& p) const override {
    return base_fingerprint(p) + ",pop" + std::to_string(p.population) + ",r" +
           std::to_string(p.max_rounds);
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    opt::MlvSearchParams mlv;
    mlv.population = p.population;
    mlv.max_rounds = p.max_rounds;
    mlv.seed = p.seed;
    mlv.n_threads = ctx.n_threads();
    const opt::IvcResult r =
        opt::evaluate_ivc(ctx.aging(), ctx.standby_leakage(), mlv, 4);
    return {{"worst_pct", r.worst_case_percent},
            {"best_mlv_pct", r.best().degradation_percent},
            {"best_mlv_leak_ua", 1e6 * r.best().leakage},
            {"mlv_spread_pct", r.mlv_spread_percent()},
            {"random_ref_pct", r.random_vector_percent},
            {"inc_bound_pct", r.best_case_percent},
            {"n_mlv", static_cast<double>(r.candidates.size())}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_ivc_analysis() {
  return std::make_unique<IvcAnalysis>();
}

}  // namespace nbtisim::analysis
