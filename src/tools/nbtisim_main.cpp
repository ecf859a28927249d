/// \file nbtisim_main.cpp
/// \brief The `nbtisim` command-line driver (manual: docs/USAGE.md).
///
///   nbtisim <verb> <circuit> [options]     one analysis on one circuit
///   nbtisim campaign run|resume|summarize|query|serve SPEC.json
///   nbtisim generate <spec> [--out PATH] [--format bench|v]
///
/// An analysis verb is one campaign grid cell: its flags become an
/// analysis::Condition and analysis::Params through the campaign spec
/// parsers (see kFlagKeys), and its engines come from one
/// analysis::ContextPool cell. `info aging failure lifetime mc dualvth inc`
/// print their own tables; every other verb is an AnalysisRegistry name
/// and prints that analysis's scalar metrics, the numbers a campaign row
/// stores. <circuit> is any netlist spec the campaign grid accepts
/// (analysis::load_netlist_spec): a built-in name, a .bench or .v path, or
/// a generator form such as "dag:<inputs>x<gates>@<seed>".

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "aging/failure.h"
#include "analysis/analysis.h"
#include "analysis/context.h"
#include "campaign/engine.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "opt/dual_vth.h"
#include "opt/inc_insertion.h"
#include "query/query.h"
#include "query/serve.h"
#include "report/report.h"
#include "tech/units.h"
#include "variation/lifetime.h"
#include "variation/variation.h"

using namespace nbtisim;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  // The analysis axis is open (analysis::AnalysisRegistry), so the usage
  // text lists whatever is registered instead of a hard-coded set.
  std::string analyses;
  for (const std::string& name : analysis::AnalysisRegistry::global().names()) {
    analyses += analyses.empty() ? name : " " + name;
  }
  std::fprintf(stderr,
               "usage: nbtisim <command> <circuit> [options]\n"
               "       nbtisim campaign run|resume|summarize SPEC.json\n"
               "                [--out PATH] [--threads N] [--csv PATH]\n"
               "                [--format md|csv]\n"
               "       nbtisim campaign query SPEC.json\n"
               "                [--query JSON | --query-file PATH]\n"
               "                [--out PATH] [--threads N] [--csv PATH]\n"
               "                [--format md|csv|json]\n"
               "       nbtisim campaign serve SPEC.json [--out PATH]\n"
               "                [--threads N] [--port N] [--max-connections N]\n"
               "       nbtisim generate <spec> [--out PATH] [--format bench|v]\n"
               "       nbtisim --version\n"
               "commands: info aging failure lifetime mc dualvth inc campaign\n"
               "          generate, or any other campaign analysis (prints\n"
               "          its metrics)\n"
               "campaign analyses: %s\n",
               analyses.c_str());
  std::fprintf(stderr,
               "  <circuit>: built-in (c432, c499, c880, c1355, c1908, c2670,\n"
               "             c3540, c5315, c6288, c7552), a .bench path, a\n"
               "             structural .v path, or dag:<inputs>x<gates>@<seed>,\n"
               "             mult:<bits>, alu:<width>\n"
               "  --ras A:S  --t-active K  --t-standby K  --years Y\n"
               "  --sigma F (st)  --samples N (mc/lifetime)\n"
               "  --margin P (lifetime/sizing)  --power W (thermal)\n"
               "  --standby stressed|relaxed|zeros|ones|mlv (multi/failure;\n"
               "            thermal accepts zeros|ones|mlv)\n"
               "  --clock GHZ  --pbti-ratio R (multi/failure)\n"
               "  --replication N  --runaway-k K (thermal)\n"
               "  --fail-dvth V (failure; --years sets its crossing window)\n"
               "  --threads N (0 = hardware; results are bit-identical for\n"
               "              every N)  --csv PATH  --cut-dffs\n");
  std::exit(2);
}

/// An analysis flag and the campaign-spec key its value sets: a condition
/// key, or a "params" key. Values are parsed as JSON numbers (text for
/// --ras and --standby) and validated by the campaign parsers, so a CLI run
/// accepts exactly what a campaign spec accepts. A flag may set several
/// keys.
struct FlagKey {
  std::string_view flag;
  std::string_view key;
  bool condition = false;  ///< condition key, else a "params" key
  bool text = false;       ///< string value, else a JSON number
};

constexpr FlagKey kFlagKeys[] = {
    {"--ras", "ras", true, true},
    {"--t-active", "t_active", true},
    {"--t-standby", "t_standby", true},
    {"--years", "years", true},
    {"--years", "fail_max_years"},  // failure's crossing window
    {"--sigma", "st_sigma"},
    {"--samples", "samples"},
    {"--margin", "spec_margin"},
    {"--margin", "sizing_margin"},
    {"--power", "thermal_power"},
    {"--replication", "thermal_replication"},
    {"--runaway-k", "thermal_runaway_k"},
    {"--clock", "clock_ghz"},
    {"--pbti-ratio", "pbti_ratio"},
    {"--fail-dvth", "fail_dvth"},
    {"--standby", "standby", false, true},
};

/// \p text as a JSON number; anything else ("1.5x", "abc", "nan") is a
/// usage error naming \p flag.
double number_flag(const std::string& flag, const std::string& text) {
  common::json::Value v;
  try {
    v = common::json::parse(text);
  } catch (const std::runtime_error&) {
  }
  if (!v.is_number()) {
    usage((flag + " expects a number, got \"" + text + "\"").c_str());
  }
  return v.as_number();
}

/// A parsed `nbtisim <verb> <circuit> [options]` command line: one
/// campaign grid cell plus the options that are not analysis knobs.
struct Invocation {
  std::string verb;
  std::string circuit;
  analysis::Condition condition;
  analysis::Params params;
  int n_threads = 0;
  bool cut_dffs = false;
  std::string csv_path;
};

Invocation parse_invocation(int argc, char** argv) {
  if (argc < 3) usage();
  Invocation inv;
  inv.verb = argv[1];
  inv.circuit = argv[2];
  if (!inv.circuit.empty() && inv.circuit.front() == '-') {
    usage(("expected a circuit before options, got " + inv.circuit).c_str());
  }
  common::json::Value condition = common::json::Object{};
  common::json::Value params = common::json::Object{};
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--threads") {
      const double n = number_flag(arg, value());
      if (n < 0.0 || n > 65536.0 || n != std::floor(n)) {
        usage("bad --threads");
      }
      inv.n_threads = static_cast<int>(n);
    } else if (arg == "--csv") {
      inv.csv_path = value();
    } else if (arg == "--cut-dffs") {
      inv.cut_dffs = true;
    } else {
      common::json::Value v;
      for (const FlagKey& f : kFlagKeys) {
        if (f.flag != arg) continue;
        if (v.is_null()) {
          const std::string text = value();
          v = f.text ? common::json::Value(text)
                     : common::json::Value(number_flag(arg, text));
        }
        (f.condition ? condition : params).set(std::string(f.key), v);
      }
      if (v.is_null()) usage(("unknown option " + arg).c_str());
    }
  }
  inv.condition = campaign::condition_from_json(condition);
  // Campaign defaults, except the Monte-Carlo vector count: the
  // AgingConditions default, which the signoff numbers of `aging`,
  // `failure` and `lifetime` are computed with.
  inv.params.sp_vectors = 4096;
  campaign::params_from_json(params, inv.params);
  return inv;
}

using Tables = std::vector<report::Table>;

/// Prints \p tables as markdown, blank-line separated; with \p csv_path also
/// writes them there as CSV.
void emit(const Tables& tables, const std::string& csv_path) {
  std::string csv;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) {
      std::printf("\n");
      csv += "\n";
    }
    std::fputs(report::to_markdown(tables[i]).c_str(), stdout);
    csv += report::to_csv(tables[i]);
  }
  if (!csv_path.empty()) {
    report::write_file(csv_path, csv);
    std::printf("\n(csv written to %s)\n", csv_path.c_str());
  }
}

/// The scalar metrics of a registry analysis as a metric | value table, in
/// the number format `campaign summarize` uses.
report::Table metric_table(const analysis::Metrics& metrics) {
  report::Table t{{"metric", "value"}, {}};
  for (const auto& [name, value] : metrics) {
    if (value.is_number()) {
      t.add_row({name, common::json::format_number(value.as_number())});
    }
  }
  return t;
}

Tables cmd_info(analysis::EvalContext& ctx) {
  const netlist::Netlist& nl = ctx.netlist();
  const sta::StaEngine sta(nl, ctx.library());
  const std::vector<bool> zeros(nl.num_inputs(), false);

  report::Table t{{"metric", "value"}, {}};
  t.add_row({"circuit", nl.name()});
  t.add_row({"primary inputs", std::to_string(nl.num_inputs())});
  t.add_row({"primary outputs", std::to_string(nl.num_outputs())});
  t.add_row({"gates", std::to_string(nl.num_gates())});
  t.add_row({"logic depth", std::to_string(nl.depth())});
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f ns",
                to_ns(sta.analyze_fresh(ctx.condition().t_active).max_delay));
  t.add_row({"fresh critical delay", buf});
  std::snprintf(buf, sizeof buf, "%.2f uA @ %g K (inputs all-0)",
                1e6 * ctx.standby_leakage().circuit_leakage(zeros),
                ctx.condition().t_standby);
  t.add_row({"standby leakage", buf});
  return {t};
}

Tables cmd_aging(analysis::EvalContext& ctx) {
  const aging::AgingAnalyzer& an = ctx.aging();
  const auto worst = an.analyze(aging::StandbyPolicy::all_stressed());
  const auto best = an.analyze(aging::StandbyPolicy::all_relaxed());
  const std::vector<bool> zeros(ctx.netlist().num_inputs(), false);
  const auto vec = an.analyze(aging::StandbyPolicy::from_vector(zeros));

  report::Table t{{"standby policy", "fresh [ns]", "aged [ns]", "ddelay [%]"},
                  {}};
  auto row = [&](const char* name, const aging::DegradationReport& r) {
    const std::vector<double> vals{to_ns(r.fresh_delay), to_ns(r.aged_delay),
                                   r.percent()};
    t.add_row(name, vals);
  };
  row("all nodes stressed (worst)", worst);
  row("inputs held all-0", vec);
  row("all nodes relaxed (best)", best);
  return {t};
}

Tables cmd_mc(analysis::EvalContext& ctx) {
  const variation::MonteCarloAging mc(
      ctx.aging(), {.sigma_vth = 0.012, .samples = ctx.params().samples,
                    .n_threads = ctx.n_threads()});
  const auto fresh = mc.fresh_distribution();
  const auto aged = mc.aged_distribution(aging::StandbyPolicy::all_stressed(),
                                         ctx.horizon());

  report::Table t{
      {"distribution", "mean [ns]", "sigma [ps]", "-3s [ns]", "+3s [ns]"}, {}};
  auto row = [&](const char* name, const variation::DelayDistribution& d) {
    const std::vector<double> vals{to_ns(d.mean()), to_ps(d.stddev()),
                                   to_ns(d.lower3()), to_ns(d.upper3())};
    t.add_row(name, vals);
  };
  row("fresh", fresh);
  row("aged", aged);
  return {t};
}

Tables cmd_dualvth(analysis::EvalContext& ctx) {
  const opt::DualVthResult r = opt::assign_dual_vth(
      ctx.netlist(), ctx.library(),
      analysis::aging_conditions(ctx.condition(), ctx.params(),
                                 ctx.n_threads()),
      {.delay_budget_percent = 2.0,
       .leakage_temperature = ctx.condition().t_standby});
  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%d of %zu (%.1f%%)", r.n_high,
                r.gate_vth_offsets.size(), 100.0 * r.high_fraction());
  t.add_row({"gates moved to high Vth", buf});
  std::snprintf(buf, sizeof buf, "%.3f -> %.3f ns", to_ns(r.fresh_delay_low),
                to_ns(r.fresh_delay_dual));
  t.add_row({"fresh delay", buf});
  std::snprintf(buf, sizeof buf, "%.2f -> %.2f uA (-%.1f%%)",
                1e6 * r.leakage_low, 1e6 * r.leakage_dual,
                r.leakage_saving_percent());
  t.add_row({"standby leakage", buf});
  std::snprintf(buf, sizeof buf, "%.3f -> %.3f %%", r.aging_low_percent,
                r.aging_dual_percent);
  t.add_row({"10-year degradation", buf});
  return {t};
}

Tables cmd_inc(analysis::EvalContext& ctx) {
  const opt::IncInsertionResult r = opt::insert_control_points(
      ctx.netlist(), ctx.library(),
      analysis::aging_conditions(ctx.condition(), ctx.params(),
                                 ctx.n_threads()),
      {.max_control_points = 30});
  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu", r.controlled.size());
  t.add_row({"control points inserted", buf});
  std::snprintf(buf, sizeof buf, "%.3f -> %.3f %% (-%.1f%%)", r.aging_before,
                r.aging_after, r.aging_saving_percent());
  t.add_row({"10-year degradation", buf});
  std::snprintf(buf, sizeof buf, "%.2f %%", r.time0_penalty_percent());
  t.add_row({"time-0 delay penalty", buf});
  return {t};
}

Tables cmd_lifetime(analysis::EvalContext& ctx) {
  const analysis::Params& p = ctx.params();
  const variation::LifetimeResult r = variation::lifetime_distribution(
      ctx.aging(), aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = p.spec_margin, .samples = p.samples,
       .n_threads = ctx.n_threads()});
  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.2f years",
                r.quantile(0.5) / kSecondsPerYear);
  t.add_row({"median lifetime", buf});
  std::snprintf(buf, sizeof buf, "%.2f years",
                r.quantile(0.01) / kSecondsPerYear);
  t.add_row({"1%-ile lifetime", buf});
  std::snprintf(buf, sizeof buf, "%.1f %%",
                100.0 * r.failure_fraction_at(ctx.horizon()));
  t.add_row({"failed within the horizon", buf});
  std::snprintf(buf, sizeof buf, "%.1f %%", 100.0 * r.survivor_fraction());
  t.add_row({"survivors at 30 years", buf});
  return {t};
}

Tables cmd_failure(analysis::EvalContext& ctx) {
  const aging::FailureParams fp =
      analysis::failure_params(ctx.params(), ctx.n_threads());
  const aging::FailureReport rep =
      aging::analyze_failure(ctx.aging(), ctx.standby_policy(), fp);

  report::Table t{{"mechanism", "system MTTF [years]", "worst gate [years]"},
                  {}};
  char buf[96];
  auto years = [&](double y) -> const char* {
    if (std::isfinite(y)) {
      std::snprintf(buf, sizeof buf, "%.2f", y);
    } else {
      std::snprintf(buf, sizeof buf, "> %g (window)", fp.max_years);
    }
    return buf;
  };
  for (const aging::MechanismMttf& m : rep.mechanisms) {
    std::vector<std::string> row{m.name};
    row.push_back(years(m.system_mttf));
    double worst = aging::kNeverFails;
    for (double g : m.gate_mttf) worst = std::min(worst, g);
    row.push_back(years(worst));
    t.add_row(row);
  }
  {
    std::vector<std::string> row{"system (all mechanisms)"};
    row.push_back(years(rep.system_mttf));
    row.push_back("");
    t.add_row(row);
  }

  report::Table curve{{"years", "P(system failed)"}, {}};
  for (const auto& [y, p] : rep.failure_curve) {
    std::snprintf(buf, sizeof buf, "%g", y);
    std::string year_s = buf;
    std::snprintf(buf, sizeof buf, "%.4f", p);
    curve.add_row({year_s, buf});
  }
  return {t, curve};
}

/// Runs one analysis verb on its grid cell and prints the result.
int run_verb(const Invocation& inv) {
  // Verbs with their own report tables; every other verb is a registry
  // analysis.
  using TableVerb = Tables (*)(analysis::EvalContext&);
  constexpr std::pair<std::string_view, TableVerb> kTableVerbs[] = {
      {"info", cmd_info},         {"aging", cmd_aging},
      {"failure", cmd_failure},   {"lifetime", cmd_lifetime},
      {"mc", cmd_mc},             {"dualvth", cmd_dualvth},
      {"inc", cmd_inc}};
  analysis::ContextPool pool(inv.params, inv.cut_dffs, inv.n_threads);
  analysis::EvalContext ctx = pool.context(inv.circuit, inv.condition);
  for (const auto& [name, fn] : kTableVerbs) {
    if (name == inv.verb) {
      emit(fn(ctx), inv.csv_path);
      return 0;
    }
  }
  const analysis::Analysis* a =
      analysis::AnalysisRegistry::global().find(inv.verb);
  if (a == nullptr) usage(("unknown command " + inv.verb).c_str());
  emit({metric_table(a->run(ctx, inv.params))}, inv.csv_path);
  return 0;
}

// Derives the default result-store path from the spec path:
// "specs/grid.json" -> "specs/grid.results.jsonl".
std::string default_store_path(const std::string& spec_path) {
  std::string base = spec_path;
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    base.erase(dot);
  }
  return base + ".results.jsonl";
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) {
    usage("generate expects: <spec> [--out PATH] [--format bench|v]");
  }
  const std::string spec = argv[2];
  std::string out_path;
  std::string format;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = value();
    } else if (arg == "--format") {
      format = value();
      if (format != "bench" && format != "v") {
        usage("--format expects bench|v");
      }
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  // Format priority: explicit --format, else the --out extension, else bench.
  if (format.empty()) {
    format = out_path.ends_with(".v") ? "v" : "bench";
  }

  const netlist::Netlist nl = analysis::load_netlist_spec(spec, false);
  const std::string text =
      format == "v" ? netlist::write_verilog(nl) : netlist::write_bench(nl);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream f(out_path);
    if (!f) throw std::runtime_error("generate: cannot write " + out_path);
    f << text;
  }
  std::fprintf(stderr,
               "generate %s: %d inputs, %d outputs, %d gates, depth %d -> "
               "%s (%s)\n",
               nl.name().c_str(), nl.num_inputs(),
               static_cast<int>(nl.outputs().size()), nl.num_gates(),
               nl.depth(), out_path.empty() ? "stdout" : out_path.c_str(),
               format.c_str());
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 4) {
    usage("campaign expects: run|resume|summarize|query|serve SPEC.json");
  }
  const std::string action = argv[2];
  const std::string spec_path = argv[3];
  if (action != "run" && action != "resume" && action != "summarize" &&
      action != "query" && action != "serve") {
    usage(("unknown campaign action " + action).c_str());
  }

  std::string store_path = default_store_path(spec_path);
  std::string csv_path;
  std::string format = "md";
  std::string query_text;
  int threads_override = -1;
  int port = -1;
  int max_connections = 0;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--out") {
      store_path = value();
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--format") {
      format = value();
      const bool json_ok = action == "query" && format == "json";
      if (format != "md" && format != "csv" && !json_ok) {
        usage(action == "query" ? "--format expects md|csv|json"
                                : "--format expects md|csv");
      }
    } else if (arg == "--threads") {
      threads_override = std::atoi(value().c_str());
      if (threads_override < 0) usage("bad --threads");
    } else if (arg == "--query" && action == "query") {
      query_text = value();
    } else if (arg == "--query-file" && action == "query") {
      const std::string path = value();
      std::ifstream f(path);
      if (!f) throw std::runtime_error("campaign query: cannot open " + path);
      std::ostringstream ss;
      ss << f.rdbuf();
      query_text = ss.str();
    } else if (arg == "--port" && action == "serve") {
      port = std::atoi(value().c_str());
      if (port < 0 || port > 65535) usage("bad --port");
    } else if (arg == "--max-connections" && action == "serve") {
      max_connections = std::atoi(value().c_str());
      if (max_connections < 0) usage("bad --max-connections");
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }

  campaign::CampaignSpec spec = campaign::load_spec(spec_path);
  if (threads_override >= 0) spec.n_threads = threads_override;

  if (action == "query") {
    // "{}" — match everything, default columns — when no query was given.
    const query::Query q = query::parse_query(
        common::json::parse(query_text.empty() ? "{}" : query_text));
    const query::StoreView view(store_path);
    const query::QueryResult r = query::run_query(view, q, spec.n_threads);
    if (format == "json") {
      std::fputs(r.to_json().c_str(), stdout);
      std::fputs("\n", stdout);
    } else {
      const report::Table t = r.table();
      std::fputs((format == "csv" ? report::to_csv(t) : report::to_markdown(t))
                     .c_str(),
                 stdout);
    }
    if (!csv_path.empty()) {
      report::write_file(csv_path, report::to_csv(r.table()));
      std::printf("(csv written to %s)\n", csv_path.c_str());
    }
    std::fprintf(stderr,
                 "query: %zu matched, %zu of %zu rows parsed across %d "
                 "file%s\n",
                 r.stats.rows_matched, r.stats.rows_parsed,
                 r.stats.index_entries, r.stats.files,
                 r.stats.files == 1 ? "" : "s");
    return 0;
  }

  if (action == "serve") {
    const query::StoreView view(store_path);
    std::fprintf(stderr, "serve: %zu rows across %zu file%s of %s\n",
                 view.total_rows(), view.files().size(),
                 view.files().size() == 1 ? "" : "s", store_path.c_str());
    if (port >= 0) {
      query::ServeOptions opt;
      opt.port = port;
      opt.n_threads = spec.n_threads;
      opt.max_connections = max_connections;
      query::serve_tcp(view, opt, &std::cerr);
    } else {
      query::serve_session(view, std::cin, std::cout, spec.n_threads);
    }
    return 0;
  }

  if (action == "summarize") {
    campaign::SummaryStats stats;
    const report::Table t = campaign::summarize(spec, store_path, &stats);
    // CSV to stdout pipes straight into plotting scripts next to the
    // BENCH_*.json files; markdown stays the human default.
    std::fputs((format == "csv" ? report::to_csv(t) : report::to_markdown(t))
                   .c_str(),
               stdout);
    if (!csv_path.empty()) {
      report::write_file(csv_path, report::to_csv(t));
      std::printf("\n(csv written to %s)\n", csv_path.c_str());
    }
    if (stats.stale > 0) {
      std::fprintf(stderr,
                   "campaign %s: %d of %d store row%s stale (parameters "
                   "changed since they were written) — not summarized\n",
                   spec.name.c_str(), stats.stale, stats.stored,
                   stats.stored == 1 ? "" : "s");
    }
    return 0;
  }

  if (action == "resume") {
    // Sharded layouts have no file at store_path itself; probe every
    // possible shard plus the legacy base file.
    if (!campaign::ShardedStore::exists(store_path)) {
      throw std::runtime_error("campaign resume: no result store at " +
                               store_path + " (use `campaign run` first)");
    }
  }
  const campaign::RunStats stats =
      campaign::run_campaign(spec, store_path, &std::cerr);
  std::printf(
      "campaign %s: %d tasks (%d skipped, %d executed, %d stale) in %.1f ms "
      "-> %s\n",
      spec.name.c_str(), stats.total, stats.skipped, stats.executed,
      stats.stale, stats.elapsed_ms, store_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                      std::strcmp(argv[1], "-V") == 0)) {
      std::printf("nbtisim %s\n", NBTISIM_VERSION);
      return 0;
    }
    if (argc >= 2 && std::strcmp(argv[1], "campaign") == 0) {
      return cmd_campaign(argc, argv);
    }
    if (argc >= 2 && std::strcmp(argv[1], "generate") == 0) {
      return cmd_generate(argc, argv);
    }
    return run_verb(parse_invocation(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nbtisim: %s\n", e.what());
    return 1;
  }
}
