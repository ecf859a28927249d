/// \file engine.h
/// \brief The campaign engine: schedules an expanded task grid over worker
///        threads and streams results into a resumable JSONL store.
///
/// Execution model:
///   1. expand() the spec into the netlist × condition × analysis grid;
///   2. drop every task whose hash is already in the store (resume) — the
///      store is sharded by task-hash prefix (spec.shards files; see
///      store.h), and loading merges every shard plus the legacy base file;
///   3. run the remainder in fixed-size batches over common::parallel_for,
///      i.e. on the process-wide shared work pool (common/pool.h) — each
///      task writes its own result slot, and each finished batch is
///      appended *in task order* (ordered reduction), batched per shard, so
///      every shard file is byte-identical for every n_threads and a killed
///      run leaves a clean resumable prefix in each shard;
///   4. summarize() aggregates the merged shards into a report::Table.
///
/// Dispatch goes through analysis::AnalysisRegistry: a task's analysis name
/// resolves to an Analysis implementation, which consumes an
/// analysis::EvalContext handed out by one per-run analysis::ContextPool —
/// tasks that share a grid cell's (netlist, condition) reuse one
/// AgingAnalyzer (the dominant cost: signal statistics + stress-descriptor
/// builds), and tasks sharing (netlist, T_standby) reuse one
/// LeakageAnalyzer. Inner engines default to the shared pool (n_threads =
/// 0): run inside a scheduler worker they execute serially — a pool task
/// never spawns a nested team, so a k-worker campaign uses k threads, not
/// k² — while a task executed on the caller (serial campaign) may fan its
/// inner loops over the idle pool. Every inner engine is bit-identical for
/// any thread count (see docs/USAGE.md "Threading model"), so all of this
/// is purely a scheduling choice, not a results one.
#pragma once

#include <iosfwd>
#include <string>

#include "campaign/spec.h"
#include "campaign/store.h"
#include "report/report.h"

namespace nbtisim::campaign {

/// Outcome of one run_campaign() invocation.
struct RunStats {
  int total = 0;     ///< grid size
  int skipped = 0;   ///< tasks already present in the store
  int executed = 0;  ///< tasks executed by this invocation
  int stale = 0;     ///< store rows whose hash matches no current task —
                     ///< results invalidated by a spec/parameter change
  double elapsed_ms = 0.0;
};

/// Outcome of one summarize() pass over a store.
struct SummaryStats {
  int stored = 0;      ///< rows in the store
  int summarized = 0;  ///< rows matching a current grid task
  int stale = 0;       ///< rows invalidated by a spec/parameter change
};

/// Runs (or resumes) \p spec against the store at \p store_path; progress
/// lines go to \p progress when non-null. See the file comment for the
/// execution model.
/// \throws std::runtime_error / std::invalid_argument on bad specs,
///         unloadable netlists, or store I/O failures
RunStats run_campaign(const CampaignSpec& spec, const std::string& store_path,
                      std::ostream* progress = nullptr);

/// Aggregates the store into one table row per task: the grid-coordinate
/// columns followed by the union of metric names (in first-appearance
/// order); tasks missing a metric get an empty cell. Rows follow the spec's
/// grid order; rows of tasks no longer in the grid (stale hashes) are
/// dropped — and counted in \p stats when non-null, so resumed campaigns
/// can surface how much of the store a parameter change invalidated.
/// \throws std::runtime_error on store I/O failures
report::Table summarize(const CampaignSpec& spec,
                        const std::string& store_path,
                        SummaryStats* stats = nullptr);

}  // namespace nbtisim::campaign
