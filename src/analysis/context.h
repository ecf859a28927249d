/// \file context.h
/// \brief Shared per-(netlist, condition) evaluation state for analyses.
///
/// Every analysis consumes the same expensive intermediates: the loaded
/// netlist, its signal statistics and stress-descriptor caches (inside the
/// AgingAnalyzer), the STA engine, and the standby-temperature leakage
/// tables. A ContextPool owns them once per campaign, keyed by grid cell;
/// an EvalContext is the cheap per-task handle that lazily resolves them,
/// so tasks sharing a cell pay the build cost once no matter how many
/// analysis kinds run on it.
///
/// Cache fills serialize *per key*, not across keys: the pool mutex only
/// guards the slot map, and each slot's (expensive, deterministic) build
/// runs under its own std::call_once — two tasks needing different
/// analyzers build them concurrently, while two tasks sharing a cell still
/// build once. Inner engines run with the pool's n_threads — 0 for
/// campaigns, i.e. the shared work pool: executed inside a scheduler worker
/// they run serially (a pool task never spawns a nested team), executed at
/// top level they may fan out; the CLI passes its --threads. Every inner
/// engine is bit-identical for any thread count anyway, so this is purely a
/// scheduling choice.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aging/aging.h"
#include "aging/failure.h"
#include "analysis/analysis.h"
#include "leakage/leakage.h"
#include "netlist/netlist.h"
#include "tech/library.h"

namespace nbtisim::analysis {

/// Loads a netlist from a grid netlist-spec string: a built-in ISCAS85
/// name, a .bench / .v path, or a generator form —
/// "dag:<inputs>x<gates>@<seed>", "mult:<bits>", "alu:<width>".
/// \throws std::invalid_argument / std::runtime_error on bad specs or files
netlist::Netlist load_netlist_spec(const std::string& spec, bool cut_dffs);

class EvalContext;

/// The aging-analyzer configuration of one grid cell: the condition's RAS
/// schedule and horizon, the shared Monte-Carlo knobs of \p p, and
/// \p n_threads inner-engine workers.
aging::AgingConditions aging_conditions(const Condition& cond, const Params& p,
                                        int n_threads);

/// The failure-suite knobs of \p p with \p n_threads workers — shared by
/// the `failure` analysis and the `nbtisim failure` report.
aging::FailureParams failure_params(const Params& p, int n_threads);

/// Owns the per-campaign caches; hands out EvalContext handles.
class ContextPool {
 public:
  /// \p n_threads is the worker count every inner engine runs with (0 =
  /// the shared pool; see the file comment).
  explicit ContextPool(Params params, bool cut_dffs = false, int n_threads = 0)
      : params_(std::move(params)), cut_dffs_(cut_dffs),
        n_threads_(n_threads) {}

  /// A handle for one grid cell; resolves lazily against this pool.
  EvalContext context(const std::string& netlist_spec, const Condition& cond);

  const Params& params() const { return params_; }
  const tech::Library& library() const { return lib_; }
  int n_threads() const { return n_threads_; }

 private:
  friend class EvalContext;

  const netlist::Netlist& netlist_for(const std::string& nl_spec);
  const aging::AgingAnalyzer& analyzer_for(const std::string& nl_spec,
                                           const Condition& cond);
  const leakage::LeakageAnalyzer& leakage_for(const std::string& nl_spec,
                                              const Condition& cond);

  /// One cached entry: the build runs under the slot's own once_flag, so
  /// distinct keys never serialize on the pool mutex while building.
  template <typename T>
  struct Slot {
    std::once_flag once;
    std::shared_ptr<T> value;
  };
  template <typename T>
  using SlotMap = std::map<std::string, std::shared_ptr<Slot<T>>>;

  Params params_;
  bool cut_dffs_;
  int n_threads_;
  tech::Library lib_;
  std::mutex mutex_;  ///< guards the slot maps only, never a build
  SlotMap<netlist::Netlist> netlists_;
  SlotMap<aging::AgingAnalyzer> analyzers_;
  SlotMap<leakage::LeakageAnalyzer> leakages_;
};

/// The per-task view an Analysis::run receives: grid coordinates plus lazy
/// accessors into the pool's caches. Cheap to copy; safe to use from the
/// task's worker thread (the pool serializes cache fills internally).
class EvalContext {
 public:
  const Condition& condition() const { return cond_; }
  const Params& params() const { return pool_->params(); }
  const tech::Library& library() const { return pool_->library(); }
  /// Worker count for inner engines (see ContextPool).
  int n_threads() const { return pool_->n_threads(); }

  /// The loaded netlist (cached per netlist spec).
  const netlist::Netlist& netlist() { return pool_->netlist_for(spec_); }

  /// The aging analyzer for this cell (cached per netlist × condition):
  /// signal stats, STA engine and per-policy stress descriptors live here.
  const aging::AgingAnalyzer& aging() {
    return pool_->analyzer_for(spec_, cond_);
  }

  /// Leakage analyzer at the condition's standby temperature (cached per
  /// netlist × T_standby).
  const leakage::LeakageAnalyzer& standby_leakage() {
    return pool_->leakage_for(spec_, cond_);
  }

  /// The condition's lifetime horizon [s].
  double horizon() const;

  /// The concrete standby input vector Params::standby selects: all-0
  /// (unset or "zeros"), all-1 ("ones"), or the minimum-leakage vector of
  /// the Fig. 7 search at the condition's standby temperature ("mlv").
  /// \throws std::invalid_argument for the policy names "stressed" and
  ///         "relaxed", which name no input vector
  std::vector<bool> standby_vector();

  /// The standby policy Params::standby selects: the bounding policies
  /// (unset or "stressed": all stressed; "relaxed"), or standby_vector().
  aging::StandbyPolicy standby_policy();

 private:
  friend class ContextPool;
  EvalContext(ContextPool* pool, std::string spec, Condition cond)
      : pool_(pool), spec_(std::move(spec)), cond_(cond) {}

  ContextPool* pool_;
  std::string spec_;
  Condition cond_;
};

}  // namespace nbtisim::analysis
