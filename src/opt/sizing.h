/// \file sizing.h
/// \brief NBTI-aware gate sizing (the Paul et al. [22] baseline the paper
///        discusses in related work).
///
/// Instead of guard-banding the clock, upsize gates so the *aged* circuit
/// still meets timing at end-of-life. Upsizing a gate by factor s multiplies
/// its drive and its input capacitance by s: its own delay contribution
/// drops (it sees load/s), while its fanin drivers see a heavier load —
/// the classic TILOS trade-off. The optimizer runs a greedy loop:
///
///   while aged critical delay > spec:
///     upsize the gate on the aged critical path with the best
///     delay-improvement-per-area ratio
///
/// and reports the area overhead, comparable against plain guard-banding.
///
/// The inner loop evaluates every candidate move on the aged critical path
/// concurrently (common::parallel_for, each trial writing its own slot) and
/// folds the argmax serially in path order, so results are bit-identical for
/// every SizingParams::n_threads — the same determinism contract as the
/// MC/IVC/Pareto layers.  A resize only changes the delays of the resized
/// gate and of its fanin drivers, so each trial patches just those entries
/// into a scratch copy of SizedTiming's cached delay vector and runs one
/// full STA.  The brute-force loop (rebuild every delay per trial) is the
/// test oracle testsupport::reference_size_for_lifetime, which
/// tests/test_differential.cpp compares this loop against bit for bit.
/// Pricing this loop's trials through sta::IncrementalSta instead is also
/// bit-identical, but measured slower on single-path rounds, so it is
/// reserved for the multi-path mode below.
///
/// Setting SizingParams::slack_window_percent > 0 switches the loop to
/// slack-aware multi-path sizing: each round collects every gate whose
/// output-net slack sits within the window of the aged critical delay,
/// prices each candidate upsize through an sta::IncrementalSta checkpoint
/// (patch the affected delays, re-time the frontier, roll back), and
/// commits the best SizingParams::moves_per_round non-overlapping moves —
/// several near-critical paths tighten per round instead of one move along
/// a single critical path.  The defaults (window 0, one move per round)
/// reproduce the classic loop bit for bit.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "aging/aging.h"

namespace nbtisim::opt {

/// Sizing knobs.
struct SizingParams {
  double spec_margin_percent = 1.0;  ///< allowed aged delay over the fresh
                                     ///< nominal critical delay [%]
  double size_step = 0.25;           ///< multiplicative step added per move
  double max_size = 4.0;             ///< per-gate size cap
  int max_moves = 2000;              ///< greedy iteration cap
  /// Worker threads for the per-move candidate evaluation; 0 = hardware
  /// concurrency.  Results are bit-identical for every value.
  int n_threads = 0;
  /// Slack window for multi-path candidate collection, as a percentage of
  /// the aged critical delay.  0 (the default) keeps the classic
  /// single-critical-path greedy loop bit for bit; > 0 considers every
  /// gate whose output-net slack is within the window and prices each
  /// move through an sta::IncrementalSta checkpoint.
  double slack_window_percent = 0.0;
  /// Best non-overlapping moves committed per round in window mode (two
  /// moves overlap when their affected gate sets intersect).  Ignored by
  /// the classic loop, which always commits exactly one move per round.
  int moves_per_round = 1;
};

/// Result of the sizing loop.
struct SizingResult {
  std::vector<double> sizes;      ///< per-gate size factors (>= 1)
  double fresh_delay = 0.0;       ///< nominal all-1x critical delay [s]
  double spec = 0.0;              ///< timing spec the aged circuit must meet [s]
  double aged_before = 0.0;       ///< aged delay at all-1x [s]
  double aged_after = 0.0;        ///< aged delay after sizing [s]
  bool met = false;               ///< spec achieved
  int moves = 0;                  ///< upsizing moves applied
  int rounds = 0;                 ///< outer-loop rounds (== moves when
                                  ///< moves_per_round is 1)

  /// Total area increase, with gate area proportional to size [%].
  double area_overhead_percent() const {
    if (sizes.empty()) return 0.0;
    double sum = 0.0;
    for (double s : sizes) sum += s;
    return 100.0 * (sum / sizes.size() - 1.0);
  }
  /// The guard-band a non-sized design would need instead [%].
  double guard_band_percent() const {
    return fresh_delay > 0.0 ? 100.0 * (aged_before / fresh_delay - 1.0) : 0.0;
  }
};

/// Sized-timing evaluator: per-gate size factors scale drive and input
/// capacitance together, so delay_g = cell_delay(load_g(sizes) / s_g) *
/// aging_factor_g with aging_factor from the per-gate dVth (paper eq. 22).
///
/// set_sizes() caches the delay vector once; evaluate_resize()/
/// commit_resize()/patched_delay() then recompute only the affected gates
/// (the resized gate, whose drive changed, and its fanin drivers, whose
/// load changed), with the same expression and accumulation order as a
/// full rebuild — so every patched entry is bitwise the rebuilt one.
/// Query methods are const and safe to call concurrently for distinct
/// scratch vectors; commit_resize()/set_sizes() are not.
class SizedTiming {
 public:
  /// \p dvth is the per-gate worst-PMOS threshold shift (one entry per gate,
  /// e.g. AgingAnalyzer::gate_dvth).
  /// \throws std::invalid_argument when dvth size mismatches the netlist
  SizedTiming(const aging::AgingAnalyzer& analyzer,
              const std::vector<double>& dvth);

  /// (Re)initializes the cached sizes + delay vector.
  /// \throws std::invalid_argument on a size-vector length mismatch
  void set_sizes(std::vector<double> sizes);

  const std::vector<double>& current_sizes() const { return sizes_; }
  const std::vector<double>& current_delays() const { return delays_; }

  /// STA over the cached delay vector.
  sta::TimingResult analyze_current() const;

  /// Gates whose delay depends on gate \p gate's size factor: the gate
  /// itself plus the drivers of its fanin nets, deduplicated.
  std::span<const int> affected_gates(int gate) const {
    return affected_.at(gate);
  }

  /// Evaluates resizing \p gate to \p new_size without committing: copies
  /// the cached delays into \p scratch, patches the affected entries and
  /// runs STA.  Thread-safe for concurrent calls with distinct scratches.
  sta::TimingResult evaluate_resize(int gate, double new_size,
                                    std::vector<double>& scratch) const;

  /// Applies the resize to the cached sizes + delay vector.
  void commit_resize(int gate, double new_size);

  /// Delay gate \p gi would have under the cached sizes with gate
  /// \p resized overridden to \p resized_size — the per-entry patch the
  /// multi-path loop feeds into IncrementalSta::set_delay for each gate in
  /// affected_gates(resized).  Bitwise the value commit_resize would cache.
  double patched_delay(int gi, int resized, double resized_size) const {
    return gate_delay(sizes_, gi, resized, resized_size);
  }

  const sta::StaEngine& sta() const { return *sta_; }

 private:
  /// Delay of gate \p gi under \p sizes, with gate \p resized (-1 for none)
  /// overridden to \p resized_size.  The single source of truth for every
  /// method above — sharing it is what makes a patch equal a rebuild.
  double gate_delay(const std::vector<double>& sizes, int gi, int resized,
                    double resized_size) const;

  const sta::StaEngine* sta_;
  const tech::Library* lib_;
  double temp_;
  std::vector<double> aging_factor_;
  std::vector<std::vector<std::pair<int, double>>> sinks_;  // (sink, pin cap)
  std::vector<double> fixed_load_;
  std::vector<std::vector<int>> affected_;
  std::vector<double> sizes_;
  std::vector<double> delays_;
};

/// Sizes \p analyzer's circuit so its aged delay (under \p policy, at the
/// analyzer's horizon) meets fresh_delay * (1 + spec_margin).
/// \throws std::invalid_argument for bad parameters
SizingResult size_for_lifetime(const aging::AgingAnalyzer& analyzer,
                               const aging::StandbyPolicy& policy,
                               const SizingParams& params = {});

}  // namespace nbtisim::opt
