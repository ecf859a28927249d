#include "campaign/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "common/pool.h"

namespace nbtisim::campaign {
namespace {

using common::json::Value;

Value execute_task(const CampaignSpec& spec, const Task& task,
                   analysis::ContextPool& pool) {
  const analysis::Analysis& a =
      analysis::AnalysisRegistry::global().at(task.analysis);
  analysis::EvalContext ctx = pool.context(task.netlist, task.condition);
  analysis::Metrics metrics = a.run(ctx, spec.params);

  Value metrics_obj;
  for (auto& [name, value] : metrics) {
    metrics_obj.set(std::move(name), std::move(value));
  }

  // No timestamps or timings in the row: the file must be byte-identical
  // for every n_threads (and across re-runs of identical work).
  Value row;
  row.set("hash", task.hash);
  row.set("campaign", spec.name);
  row.set("netlist", ctx.netlist().name());
  row.set("netlist_spec", task.netlist);
  char ras[32];
  std::snprintf(ras, sizeof ras, "%g:%g", task.condition.ras_active,
                task.condition.ras_standby);
  row.set("ras", std::string(ras));
  row.set("t_active", task.condition.t_active);
  row.set("t_standby", task.condition.t_standby);
  row.set("years", task.condition.years);
  row.set("analysis", task.analysis);
  row.set("metrics", std::move(metrics_obj));
  return row;
}

}  // namespace

RunStats run_campaign(const CampaignSpec& spec, const std::string& store_path,
                      std::ostream* progress) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Task> grid = expand(spec);
  ShardedStore store(store_path, spec.shards);

  std::unordered_set<std::string> grid_hashes;
  for (const Task& t : grid) grid_hashes.insert(t.hash);

  std::vector<const Task*> pending;
  for (const Task& t : grid) {
    if (!store.contains(t.hash)) pending.push_back(&t);
  }

  RunStats stats;
  stats.total = static_cast<int>(grid.size());
  stats.skipped = stats.total - static_cast<int>(pending.size());
  for (const Value* row : store.all_rows()) {
    if (!grid_hashes.contains(row->at("hash").as_string())) ++stats.stale;
  }
  if (progress != nullptr) {
    *progress << "campaign " << spec.name << ": " << stats.total << " tasks, "
              << stats.skipped << " already in " << store_path << "\n";
    if (stats.stale > 0) {
      *progress << "campaign " << spec.name << ": " << stats.stale
                << " stale store row" << (stats.stale == 1 ? "" : "s")
                << " (parameters changed; superseded results stay on disk "
                   "but are ignored)\n";
    }
  }

  analysis::ContextPool pool(spec.params, spec.cut_dffs);
  // Fixed batch size: big enough to keep any sane worker count busy, small
  // enough that a killed run loses little work. Batch boundaries never
  // affect file content — rows land in task order either way, routed to
  // their hash-prefix shard as one batched append per shard.
  constexpr int kBatch = 32;
  for (std::size_t begin = 0; begin < pending.size(); begin += kBatch) {
    const int count =
        static_cast<int>(std::min<std::size_t>(kBatch, pending.size() - begin));
    std::vector<Value> rows(count);
    common::parallel_for(count, spec.n_threads, [&](int i) {
      rows[i] = execute_task(spec, *pending[begin + i], pool);
    });
    store.append(rows);
    stats.executed += count;
    if (progress != nullptr) {
      *progress << "campaign " << spec.name << ": " << stats.executed << "/"
                << pending.size() << " executed\n";
    }
  }

  stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return stats;
}

report::Table summarize(const CampaignSpec& spec,
                        const std::string& store_path, SummaryStats* stats) {
  const std::vector<Task> grid = expand(spec);
  const ShardedStore store(store_path, spec.shards);

  std::unordered_map<std::string, const Value*> by_hash;
  for (const Value* row : store.all_rows()) {
    by_hash.emplace(row->at("hash").as_string(), row);
  }

  // Column set: grid coordinates + metric names in first-appearance order
  // over the grid (not file order, so resumed stores summarize identically).
  std::vector<std::string> metric_names;
  int matched = 0;
  for (const Task& t : grid) {
    const auto it = by_hash.find(t.hash);
    if (it == by_hash.end()) continue;
    ++matched;
    for (const auto& [name, value] : it->second->at("metrics").as_object()) {
      if (!value.is_number()) continue;  // structured payloads have no column
      if (std::find(metric_names.begin(), metric_names.end(), name) ==
          metric_names.end()) {
        metric_names.push_back(name);
      }
    }
  }
  if (stats != nullptr) {
    stats->stored = static_cast<int>(store.size());
    stats->summarized = matched;
    stats->stale = static_cast<int>(store.size()) - matched;
  }

  report::Table table;
  table.headers = {"netlist", "ras", "t_active", "t_standby", "years",
                   "analysis"};
  table.headers.insert(table.headers.end(), metric_names.begin(),
                       metric_names.end());
  for (const Task& t : grid) {
    const auto it = by_hash.find(t.hash);
    if (it == by_hash.end()) continue;
    const Value& row = *it->second;
    std::vector<std::string> cells{
        row.at("netlist").as_string(),
        row.at("ras").as_string(),
        common::json::format_number(row.at("t_active").as_number()),
        common::json::format_number(row.at("t_standby").as_number()),
        common::json::format_number(row.at("years").as_number()),
        row.at("analysis").as_string()};
    const Value& metrics = row.at("metrics");
    for (const std::string& name : metric_names) {
      const Value* m = metrics.find(name);
      cells.push_back(m == nullptr || !m->is_number()
                          ? std::string()
                          : common::json::format_number(m->as_number()));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace nbtisim::campaign
