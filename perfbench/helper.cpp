/// \file helper.cpp
/// \brief In-process half of the nbtisim end-to-end benchmark (run.py).
///
///   perfbench_helper write-store STORE SHARDS ROWS.jsonl
///       Appends every row of ROWS.jsonl (one JSON object per line, real
///       campaign row schema) to a sharded result store through
///       campaign::ShardedStore::append, in campaign-sized batches.
///   perfbench_helper trace-signoff BENCH THREADS SAMPLES OUT.json
///   perfbench_helper trace-campaign SPEC STORE THREADS SUMMARY.md OUT.json
///   perfbench_helper trace-query STORE QUERIES.jsonl THREADS REPLIES OUT.json
///       Replay the work of one benchmark job in-process, recording a span
///       (name, start, end, parent) around each call into a module's public
///       functions, plus work counters computed from outside through public
///       APIs. Spans stay in memory and are written to OUT.json at the end;
///       run.py turns them into self times per layer.
///
/// The replays mirror what the `nbtisim` verbs do (same parameters, same
/// call order), so their results are checked against the CLI's outputs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "aging/aging.h"
#include "aging/failure.h"
#include "analysis/analysis.h"
#include "analysis/context.h"
#include "campaign/engine.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "common/json.h"
#include "common/pool.h"
#include "netlist/bench_io.h"
#include "nbti/schedule.h"
#include "query/query.h"
#include "report/report.h"
#include "sim/simulator.h"
#include "sta/sta.h"
#include "tech/library.h"
#include "tech/units.h"
#include "variation/lifetime.h"

using namespace nbtisim;

namespace {

using Clock = std::chrono::steady_clock;

/// Span and counter recorder. Spans carry an explicit parent id so work
/// fanned out over the pool can name the span that caused it.
class Tracer {
 public:
  int begin(const std::string& name, int parent) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, t, -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  void add(const std::string& counter, double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[counter] += v;
  }
  void set(const std::string& counter, double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[counter] = v;
  }
  void write(const std::string& path, const std::string& results_json) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    char buf[128];
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      std::snprintf(buf, sizeof buf, ",%.9f,%.9f,%d]", r.start, r.end,
                    r.parent);
      out << (i ? "," : "") << "[\"" << r.name << "\"" << buf;
    }
    out << "],\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : counters_) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out << (first ? "" : ",") << "\"" << name << "\":" << buf;
      first = false;
    }
    out << "},\"results\":" << results_json << "}\n";
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write " + path);
    f << out.str();
  }

 private:
  struct Record {
    std::string name;
    double start;
    double end;
    int parent;
  };
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  const Clock::time_point t0_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> spans_;
  std::map<std::string, double> counters_;
};

Tracer tracer;

/// RAII span around one call.
class Span {
 public:
  Span(const std::string& name, int parent)
      : id_(tracer.begin(name, parent)) {}
  ~Span() { tracer.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

/// Wall time of one call, in seconds, without recording a span.
template <typename F>
double time_call(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
auto timed(const std::string& name, int parent, F&& f) {
  Span s(name, parent);
  return f();
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// JSON number; null for the never-fails sentinel and other non-finites.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- write-store

int cmd_write_store(const std::string& store_path, int shards,
                    const std::string& rows_path) {
  std::ifstream in(rows_path);
  if (!in) throw std::runtime_error("cannot open " + rows_path);
  campaign::ShardedStore store(store_path, shards);
  // The campaign engine appends in batches of 32 tasks; do the same so the
  // store files and their sidecar indexes are written the way a campaign
  // writes them.
  constexpr std::size_t kBatch = 32;
  std::vector<common::json::Value> batch;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    batch.push_back(common::json::parse(line));
    if (batch.size() == kBatch) {
      store.append(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) store.append(batch);
  return 0;
}

// --------------------------------------------------------------- probes

/// PMOS device count of a netlist and the distinct equivalent-stress duties
/// its contexts have under the given policies — the sharing a duty-keyed
/// memo of stress contexts would see. Computed from signal_stats(),
/// Cell::signal_probabilities and the PMOS gate signals, the same inputs
/// the analyzer's descriptor build uses.
struct DutyProbe {
  std::size_t pmos = 0;
  std::unordered_set<std::uint64_t> duties;
};

void probe_duties(const netlist::Netlist& nl, const tech::Library& lib,
                  const aging::AgingAnalyzer& an,
                  const std::vector<aging::StandbyPolicy>& policies,
                  DutyProbe& out) {
  const sim::SignalStats& stats = an.signal_stats();
  const double vdd = lib.params().vdd;
  const nbti::ModeSchedule& schedule = an.conditions().schedule;
  std::vector<std::vector<bool>> standby;  // per policy; empty if bounding
  for (const aging::StandbyPolicy& p : policies) {
    standby.push_back(p.kind == aging::StandbyPolicy::Kind::Vector
                          ? sim::Simulator(nl).evaluate_forced(p.vector,
                                                               p.forces)
                          : std::vector<bool>{});
  }
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    const tech::Cell& cell = lib.cell(an.sta().gate_cell(gi));
    std::vector<double> pin_sp;
    for (netlist::NodeId in : g.fanins) pin_sp.push_back(stats.probability[in]);
    const std::vector<double> sp = cell.signal_probabilities(pin_sp);
    out.pmos += cell.pmos_devices().size();
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      std::vector<bool> sig;
      if (!standby[pi].empty()) {
        std::uint32_t bits = 0;
        for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
          bits |= standby[pi][g.fanins[pin]] ? (1u << pin) : 0u;
        }
        sig = cell.signal_values(bits);
      }
      for (const tech::PmosDevice& pm : cell.pmos_devices()) {
        nbti::DeviceStress s;
        s.active_stress_prob = 1.0 - sp[pm.gate_signal];
        s.vgs = vdd;
        s.vth0 = lib.params().pmos.vth0;
        switch (policies[pi].kind) {
          case aging::StandbyPolicy::Kind::AllStressed:
            s.standby = nbti::StandbyMode::Stressed;
            break;
          case aging::StandbyPolicy::Kind::AllRelaxed:
            s.standby = nbti::StandbyMode::Relaxed;
            break;
          default:
            s.standby_stress_fraction = sig[pm.gate_signal] ? 0.0 : 1.0;
            break;
        }
        const double duty =
            nbti::equivalent_cycle(an.conditions().rd, s, schedule).duty();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &duty, sizeof bits);
        out.duties.insert(bits);
      }
    }
  }
}

// -------------------------------------------------------------- trace-signoff

aging::AgingConditions cli_conditions(int threads) {
  // nbtisim's defaults: --ras 1:9 --t-active 400 --t-standby 330 --years 10
  aging::AgingConditions cond;
  cond.schedule = nbti::ModeSchedule::from_ras(1.0, 9.0, 1000.0, 400.0, 330.0);
  cond.total_time = 10.0 * kSecondsPerYear;
  cond.n_threads = threads;
  return cond;
}

/// One CLI-equivalent job's front half: read + parse the .bench file,
/// levelize, build the analyzer.
struct Loaded {
  netlist::Netlist nl;
  std::unique_ptr<aging::AgingAnalyzer> an;
};

Loaded load_and_build(const std::string& path, const tech::Library& lib,
                      int threads, int parent) {
  const std::string text =
      timed("netlist.read", parent, [&] { return read_file(path); });
  std::string name = path.substr(path.find_last_of('/') + 1);
  Loaded l{timed("netlist.parse", parent,
                 [&] { return netlist::parse_bench(text, name); }),
           nullptr};
  timed("netlist.levelize", parent,
        [&] { return l.nl.levelization().depth; });
  l.an = timed("aging.analyzer_build", parent, [&] {
    return std::make_unique<aging::AgingAnalyzer>(l.nl, lib,
                                                  cli_conditions(threads));
  });
  return l;
}

/// First gate_dvth for a policy (descriptor build + evaluation), then a
/// cached repeat (evaluation only): the difference prices the build.
std::vector<double> prime_policy(const aging::AgingAnalyzer& an,
                                 const aging::StandbyPolicy& policy,
                                 std::size_t pmos, int parent) {
  timed("aging.gate_dvth_first", parent, [&] { return an.gate_dvth(policy); });
  std::vector<double> dvth =
      timed("nbti.dvth_eval", parent, [&] { return an.gate_dvth(policy); });
  tracer.add("nbti.device_evals", 2.0 * static_cast<double>(pmos));
  return dvth;
}

/// The policies `nbtisim aging` reports, in its row order.
std::vector<aging::StandbyPolicy> signoff_policies(const netlist::Netlist& nl) {
  return {aging::StandbyPolicy::all_stressed(),
          aging::StandbyPolicy::from_vector(
              std::vector<bool>(nl.num_inputs(), false)),
          aging::StandbyPolicy::all_relaxed()};
}

std::size_t count_pmos(const netlist::Netlist& nl, const tech::Library& lib,
                       const aging::AgingAnalyzer& an) {
  std::size_t n = 0;
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    n += lib.cell(an.sta().gate_cell(gi)).pmos_devices().size();
  }
  return n;
}

int cmd_trace_signoff(const std::string& bench, int threads, int samples,
                      const std::string& out_path) {
  const tech::Library lib;
  std::ostringstream results;
  double stress_builds = 0.0, contexts = 0.0;
  std::size_t gates = 0, pmos = 0;
  DutyProbe duties;

  const int job = tracer.begin("signoff.job", -1);
  {  // nbtisim aging BENCH
    Span s("job.aging", job);
    Loaded l = load_and_build(bench, lib, threads, s.id());
    gates = static_cast<std::size_t>(l.nl.num_gates());
    pmos = count_pmos(l.nl, lib, *l.an);
    const std::vector<aging::StandbyPolicy> policies = signoff_policies(l.nl);
    results << "{\"aging\":[";
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const std::vector<double> dvth =
          prime_policy(*l.an, policies[i], pmos, s.id());
      const std::vector<double> delays = timed(
          "aging.aged_delays", s.id(), [&] { return l.an->aged_gate_delays(dvth); });
      const double aged = timed("sta.analyze", s.id(), [&] {
        return l.an->sta().analyze(delays).max_delay;
      });
      tracer.add("sta.analyze_calls", 1.0);
      results << (i ? "," : "") << "[" << num(to_ns(l.an->fresh_critical_delay()))
              << "," << num(to_ns(aged)) << "]";
    }
    results << "]";
    stress_builds += static_cast<double>(l.an->stress_build_count());
    contexts += static_cast<double>(l.an->stress_build_count() * pmos);
  }
  {  // nbtisim failure BENCH
    Span s("job.failure", job);
    Loaded l = load_and_build(bench, lib, threads, s.id());
    prime_policy(*l.an, aging::StandbyPolicy::all_stressed(), pmos, s.id());
    aging::FailureParams fp;
    fp.multi.clock_hz = 1.0e9;
    fp.multi.pbti.ratio = 0.35;
    fp.fail_dvth = 0.05;
    fp.n_threads = threads;
    const aging::FailureReport rep = timed("aging.failure", s.id(), [&] {
      return aging::analyze_failure(*l.an, aging::StandbyPolicy::all_stressed(),
                                    fp);
    });
    results << ",\"failure\":{\"system_mttf\":" << num(rep.system_mttf)
            << ",\"mechanisms\":[";
    for (std::size_t i = 0; i < rep.mechanisms.size(); ++i) {
      results << (i ? "," : "") << num(rep.mechanisms[i].system_mttf);
    }
    results << "]}";
    stress_builds += static_cast<double>(l.an->stress_build_count());
    contexts += static_cast<double>(l.an->stress_build_count() * pmos);
  }
  {  // nbtisim lifetime BENCH --samples N
    Span s("job.lifetime", job);
    Loaded l = load_and_build(bench, lib, threads, s.id());
    prime_policy(*l.an, aging::StandbyPolicy::all_stressed(), pmos, s.id());
    variation::LifetimeParams lp;
    lp.spec_margin_percent = 5.0;
    lp.samples = samples;
    lp.n_threads = threads;
    const variation::LifetimeResult r = timed("variation.lifetime", s.id(), [&] {
      return variation::lifetime_distribution(
          *l.an, aging::StandbyPolicy::all_stressed(), lp);
    });
    tracer.add("variation.samples", static_cast<double>(samples));
    results << ",\"lifetime\":[" << num(r.quantile(0.5) / kSecondsPerYear)
            << "," << num(r.quantile(0.01) / kSecondsPerYear) << "]}";
    stress_builds += static_cast<double>(l.an->stress_build_count());
    contexts += static_cast<double>(l.an->stress_build_count() * pmos);
  }
  tracer.end(job);

  {  // Probes, outside the job: the STA engine and signal statistics the
     // analyzer constructor builds internally, priced as standalone public
     // calls, and the duty sharing of the aging job's stress contexts.
    const netlist::Netlist nl = netlist::parse_bench(read_file(bench), "probe");
    const aging::AgingAnalyzer an(nl, lib, cli_conditions(threads));
    Span probe("probe", -1);
    timed("sta.engine_build", probe.id(),
          [&] { return sta::StaEngine(nl, lib).netlist().num_gates(); });
    const sim::SignalStats st = timed("sim.signal_stats", probe.id(), [&] {
      return sim::estimate_signal_stats(
          nl, std::vector<double>(nl.num_inputs(), 0.5),
          an.conditions().sp_vectors, an.conditions().seed, threads);
    });
    if (st.probability != an.signal_stats().probability) {
      throw std::runtime_error("signal-stats probe differs from the analyzer");
    }
    probe_duties(nl, lib, an, signoff_policies(nl), duties);
  }
  tracer.set("netlist.gates", static_cast<double>(gates));
  tracer.set("aging.stress_builds", stress_builds);
  tracer.set("aging.contexts", contexts);
  tracer.set("aging.distinct_duties", static_cast<double>(duties.duties.size()));
  tracer.write(out_path, results.str());
  return 0;
}

// ------------------------------------------------------------- trace-campaign

/// The store row campaign::run_campaign writes for one task (engine.cpp).
common::json::Value make_row(const campaign::CampaignSpec& spec,
                             const campaign::Task& task,
                             analysis::EvalContext& ctx,
                             analysis::Metrics metrics) {
  common::json::Value metrics_obj;
  for (auto& [name, value] : metrics) {
    metrics_obj.set(std::move(name), std::move(value));
  }
  common::json::Value row;
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

int cmd_trace_campaign(const std::string& spec_path,
                       const std::string& store_path, int threads,
                       const std::string& summary_path,
                       const std::string& out_path) {
  campaign::CampaignSpec spec = campaign::load_spec(spec_path);
  spec.n_threads = threads;
  const tech::Library lib;

  const int job = tracer.begin("campaign.job", -1);
  const std::vector<campaign::Task> grid =
      timed("campaign.expand", job, [&] { return campaign::expand(spec); });
  tracer.set("campaign.tasks", static_cast<double>(grid.size()));
  campaign::ShardedStore store =
      timed("campaign.store_open", job, [&] {
        return campaign::ShardedStore(store_path, spec.shards);
      });
  analysis::ContextPool pool(spec.params, spec.cut_dffs);
  const analysis::AnalysisRegistry& registry =
      analysis::AnalysisRegistry::global();

  // Same batching as run_campaign: rows of a batch computed on the pool,
  // then one batched append.
  constexpr int kBatch = 32;
  for (std::size_t begin = 0; begin < grid.size(); begin += kBatch) {
    const int count =
        static_cast<int>(std::min<std::size_t>(kBatch, grid.size() - begin));
    std::vector<common::json::Value> rows(static_cast<std::size_t>(count));
    {
      Span batch("campaign.batch", job);
      common::parallel_for(count, spec.n_threads, [&](int i) {
        const campaign::Task& task = grid[begin + static_cast<std::size_t>(i)];
        const analysis::Analysis& a = registry.at(task.analysis);
        analysis::EvalContext ctx = pool.context(task.netlist, task.condition);
        {
          Span c("analysis.context_build", batch.id());
          ctx.netlist();
          ctx.aging();
          ctx.standby_leakage();
        }
        analysis::Metrics m = timed("analysis." + task.analysis, batch.id(),
                                    [&] { return a.run(ctx, spec.params); });
        rows[static_cast<std::size_t>(i)] =
            make_row(spec, task, ctx, std::move(m));
      });
    }
    timed("campaign.store_append", job, [&] {
      store.append(rows);
      return 0;
    });
    tracer.add("campaign.rows_written", count);
  }
  tracer.end(job);

  // Probes and work counters, outside the job. The grid gives every cell
  // (netlist x condition) one analyzer in the pool and makes one context
  // request per task. The probes price, as standalone public calls, the
  // parse, STA build and signal statistics each cell's context build does
  // internally, plus one STA pass per cell.
  double gates = 0.0, builds = 0.0, contexts = 0.0, stress_s = 0.0;
  DutyProbe duties;
  {
    Span probe("probe", -1);
    for (const std::string& n : spec.netlists) {
      netlist::Netlist nl = timed("netlist.parse", probe.id(), [&] {
        return analysis::load_netlist_spec(n, spec.cut_dffs);
      });
      timed("netlist.levelize", probe.id(),
            [&] { return nl.levelization().depth; });
      gates += nl.num_gates();
      for (const analysis::Condition& c : spec.conditions) {
        analysis::EvalContext ctx = pool.context(n, c);
        const aging::AgingAnalyzer& an = ctx.aging();
        timed("sta.engine_build", probe.id(),
              [&] { return sta::StaEngine(nl, lib).netlist().num_gates(); });
        const sim::SignalStats st = timed("sim.signal_stats", probe.id(), [&] {
          return sim::estimate_signal_stats(
              nl, std::vector<double>(nl.num_inputs(), 0.5),
              an.conditions().sp_vectors, an.conditions().seed, threads);
        });
        if (st.probability != an.signal_stats().probability) {
          throw std::runtime_error("signal-stats probe differs for " + n);
        }
        const std::vector<double> fresh =
            an.aged_gate_delays(std::vector<double>(nl.num_gates(), 0.0));
        timed("sta.analyze", probe.id(),
              [&] { return an.sta().analyze(fresh).max_delay; });
        tracer.add("sta.analyze_calls", 1.0);
        // The pool's analyzer has its descriptors cached by now: price one
        // build on a fresh analyzer of the same cell (first gate_dvth minus
        // a cached repeat) and scale it by the builds the grid made. Serial,
        // as the builds run inside pool tasks.
        aging::AgingConditions serial = an.conditions();
        serial.n_threads = 1;
        const aging::AgingAnalyzer cold(ctx.netlist(), lib, serial);
        const aging::StandbyPolicy stressed =
            aging::StandbyPolicy::all_stressed();
        const double first = time_call([&] { cold.gate_dvth(stressed); });
        const double repeat = time_call([&] { cold.gate_dvth(stressed); });
        stress_s += (first - repeat) * static_cast<double>(an.stress_build_count());
        DutyProbe one;
        probe_duties(ctx.netlist(), lib, an, {stressed}, one);
        builds += static_cast<double>(an.stress_build_count());
        contexts += static_cast<double>(an.stress_build_count() * one.pmos);
        duties.duties.insert(one.duties.begin(), one.duties.end());
      }
    }
  }
  tracer.set("netlist.gates", gates);
  tracer.set("aging.stress_builds", builds);
  tracer.set("aging.contexts", contexts);
  tracer.set("aging.distinct_duties", static_cast<double>(duties.duties.size()));
  tracer.set("aging.stress_build_s", stress_s);
  tracer.set("analysis.contexts_built",
             static_cast<double>(spec.netlists.size() * spec.conditions.size()));
  tracer.set("analysis.context_requests", static_cast<double>(grid.size()));

  campaign::SummaryStats sstats;
  const report::Table table = timed("campaign.summarize", -1, [&] {
    return campaign::summarize(spec, store_path, &sstats);
  });
  {
    std::ofstream f(summary_path);
    f << report::to_markdown(table);
  }
  const campaign::RunStats resumed = timed("campaign.resume", -1, [&] {
    return campaign::run_campaign(spec, store_path, nullptr);
  });
  tracer.write(out_path, "{\"resume_executed\":" +
                             std::to_string(resumed.executed) +
                             ",\"summarized\":" +
                             std::to_string(sstats.summarized) + "}");
  return 0;
}

// ---------------------------------------------------------------- trace-query

int cmd_trace_query(const std::string& store_path,
                    const std::string& queries_path, int threads,
                    const std::string& replies_path,
                    const std::string& out_path) {
  std::vector<std::string> lines;
  {
    std::ifstream in(queries_path);
    if (!in) throw std::runtime_error("cannot open " + queries_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  const query::StoreView view = timed("query.view_load", -1, [&] {
    return query::StoreView(store_path);
  });
  std::ofstream replies(replies_path);
  const int job = tracer.begin("query.job", -1);
  for (const std::string& line : lines) {
    Span req("query.request", job);
    const query::Query q = timed("query.parse", req.id(), [&] {
      return query::parse_query(common::json::parse(line));
    });
    const query::QueryResult r = timed(
        "query.run", req.id(), [&] { return query::run_query(view, q, threads); });
    // The reply envelope query::handle_query sends.
    std::string out = timed("query.format", req.id(), [&] {
      const std::string body = r.to_json();
      std::string s = "{\"ok\":true,";
      s.append(body, 1, body.size() - 2);
      s += ",\"matched\":" + std::to_string(r.stats.rows_matched);
      s += ",\"parsed\":" + std::to_string(r.stats.rows_parsed);
      s += '}';
      return s;
    });
    replies << out << '\n';
    tracer.add("query.rows_parsed", static_cast<double>(r.stats.rows_parsed));
    tracer.add("query.rows_matched", static_cast<double>(r.stats.rows_matched));
    tracer.add("query.index_entries",
               static_cast<double>(r.stats.index_entries));
    tracer.add("query.requests", 1.0);
  }
  tracer.end(job);
  tracer.write(out_path, "{}");
  return 0;
}

[[noreturn]] void usage() {
  std::fputs(
      "usage: perfbench_helper write-store STORE SHARDS ROWS.jsonl\n"
      "       perfbench_helper trace-signoff BENCH THREADS SAMPLES OUT.json\n"
      "       perfbench_helper trace-campaign SPEC STORE THREADS SUMMARY.md "
      "OUT.json\n"
      "       perfbench_helper trace-query STORE QUERIES THREADS REPLIES "
      "OUT.json\n",
      stderr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> a(argv + 1, argv + argc);
    if (a.size() == 4 && a[0] == "write-store") {
      return cmd_write_store(a[1], std::stoi(a[2]), a[3]);
    }
    if (a.size() == 5 && a[0] == "trace-signoff") {
      return cmd_trace_signoff(a[1], std::stoi(a[2]), std::stoi(a[3]), a[4]);
    }
    if (a.size() == 6 && a[0] == "trace-campaign") {
      return cmd_trace_campaign(a[1], a[2], std::stoi(a[3]), a[4], a[5]);
    }
    if (a.size() == 6 && a[0] == "trace-query") {
      return cmd_trace_query(a[1], a[2], std::stoi(a[3]), a[4], a[5]);
    }
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_helper: %s\n", e.what());
    return 1;
  }
}
