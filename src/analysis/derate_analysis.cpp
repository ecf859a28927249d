/// \file derate_analysis.cpp
/// \brief "derate": the signoff derate table as a grid analysis — the
///        aged/fresh circuit delay factor per lifetime under the worst /
///        all-zero / best standby policies, flattened to one metric per
///        (policy, year) cell.

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "report/derate.h"

namespace nbtisim::analysis {
namespace {

class DerateAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "derate"; }

  std::string fingerprint(const Params& p) const override {
    std::string fp = base_fingerprint(p) + ",y[";
    for (std::size_t i = 0; i < p.derate_years.size(); ++i) {
      if (i > 0) fp += ":";
      fp += fmt_g(p.derate_years[i]);
    }
    return fp + "]";
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    // One horizon-batched pass per policy over the cached stress
    // descriptors.
    const report::DerateTable t = report::aging_derate_table(
        ctx.aging(), p.derate_years, ctx.n_threads());
    // Short policy tags keep the summarize columns readable:
    // worst_case -> "worst", inputs_all_zero -> "vec0", best_case -> "best".
    static constexpr const char* kTags[] = {"worst", "vec0", "best"};
    Metrics m;
    m.reserve(t.policy_names.size() * t.years.size());
    for (std::size_t pi = 0; pi < t.policy_names.size(); ++pi) {
      const std::string tag =
          pi < 3 ? kTags[pi] : t.policy_names[pi];
      for (std::size_t yi = 0; yi < t.years.size(); ++yi) {
        m.emplace_back(tag + "_y" + fmt_g(t.years[yi]), t.factors[pi][yi]);
      }
    }
    return m;
  }
};

}  // namespace

std::unique_ptr<Analysis> make_derate_analysis() {
  return std::make_unique<DerateAnalysis>();
}

}  // namespace nbtisim::analysis
