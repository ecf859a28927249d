/// \file sizing_analysis.cpp
/// \brief "sizing": NBTI-aware gate sizing to an aged-delay spec (Paul-style
///        baseline), as a sweepable grid analysis — area overhead vs the
///        guard-band alternative per (netlist, condition).

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "opt/sizing.h"
#include "tech/units.h"

namespace nbtisim::analysis {
namespace {

class SizingAnalysis final : public Analysis {
 public:
  std::string_view name() const override { return "sizing"; }

  std::string fingerprint(const Params& p) const override {
    std::string fp = base_fingerprint(p) + ",margin" + fmt_g(p.sizing_margin) +
                     ",step" + fmt_g(p.sizing_step) + ",cap" +
                     fmt_g(p.sizing_max_size) + ",moves" +
                     std::to_string(p.sizing_max_moves);
    // Multi-path knobs appear only when non-default so every pre-existing
    // campaign key (and its cached result) stays addressable.
    if (p.sizing_slack_window != 0.0) {
      fp += ",window" + fmt_g(p.sizing_slack_window);
    }
    if (p.sizing_moves_per_round != 1) {
      fp += ",k" + std::to_string(p.sizing_moves_per_round);
    }
    return fp;
  }

  Metrics run(EvalContext& ctx, const Params& p) const override {
    opt::SizingParams sp;
    sp.spec_margin_percent = p.sizing_margin;
    sp.size_step = p.sizing_step;
    sp.max_size = p.sizing_max_size;
    sp.max_moves = p.sizing_max_moves;
    sp.n_threads = ctx.n_threads();
    sp.slack_window_percent = p.sizing_slack_window;
    sp.moves_per_round = p.sizing_moves_per_round;
    const opt::SizingResult r = opt::size_for_lifetime(
        ctx.aging(), aging::StandbyPolicy::all_stressed(), sp);
    return {{"spec_ns", to_ns(r.spec)},
            {"aged_before_ns", to_ns(r.aged_before)},
            {"aged_after_ns", to_ns(r.aged_after)},
            {"area_overhead_pct", r.area_overhead_percent()},
            {"guard_band_pct", r.guard_band_percent()},
            {"moves", static_cast<double>(r.moves)},
            {"rounds", static_cast<double>(r.rounds)},
            {"met", r.met ? 1.0 : 0.0}};
  }
};

}  // namespace

std::unique_ptr<Analysis> make_sizing_analysis() {
  return std::make_unique<SizingAnalysis>();
}

}  // namespace nbtisim::analysis
