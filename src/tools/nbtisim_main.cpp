/// \file nbtisim_main.cpp
/// \brief The `nbtisim` command-line driver.
///
/// Runs the library's analyses on built-in ISCAS85-class circuits or user
/// .bench / .v files:
///
///   nbtisim info     <circuit>              circuit + timing + leakage stats
///   nbtisim aging    <circuit> [options]    NBTI degradation report
///   nbtisim multi    <circuit> [options]    NBTI + PBTI + HCI combined
///   nbtisim ivc      <circuit> [options]    IVC / NBTI co-optimization
///   nbtisim st       <circuit> [options]    sleep-transistor analysis
///   nbtisim dualvth  <circuit> [options]    dual-Vth assignment co-benefit
///   nbtisim sizing   <circuit> [options]    NBTI-aware gate sizing
///   nbtisim inc      <circuit> [options]    control-point insertion
///   nbtisim mc       <circuit> [options]    variation Monte-Carlo
///   nbtisim lifetime <circuit> [options]    time-to-failure distribution
///   nbtisim thermal  <circuit> [options]    electrothermal operating point
///   nbtisim failure  <circuit> [options]    multi-mechanism failure suite
///
/// Batch campaigns (declarative scenario grids, src/campaign):
///
///   nbtisim campaign run       SPEC.json    execute the grid (skips rows
///                                           already in the result store)
///   nbtisim campaign resume    SPEC.json    continue an interrupted run
///   nbtisim campaign summarize SPEC.json    aggregate the store to a table
///   nbtisim campaign query     SPEC.json    run one query (src/query) over
///                                           the indexed result store
///   nbtisim campaign serve     SPEC.json    answer query lines on stdio or
///                                           TCP (--port)
///
/// Circuit generation (write a generated circuit out as .bench / .v):
///
///   nbtisim generate <spec> [--out PATH] [--format bench|v]
///
/// where <spec> is a <circuit> as below.
///
/// <circuit>: any netlist spec the campaign grid accepts
/// (analysis::load_netlist_spec) — a built-in name (c432, c880, ...), a
/// path to a .bench file (add --cut-dffs for sequential netlists), a
/// structural .v file, or a generator spec "dag:<inputs>x<gates>@<seed>",
/// "mult:<bits>" or "alu:<width>".
///
/// Common options:
///   --ras A:S          active:standby ratio        (default 1:9)
///   --t-active K       active temperature          (default 400)
///   --t-standby K      standby temperature         (default 330)
///   --years Y          lifetime horizon            (default 10)
///   --threads N        worker threads, 0=hardware  (default 0)
///   --csv PATH         also write the result table as CSV
///   --cut-dffs         cut DFFs when loading .bench

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/context.h"
#include "campaign/engine.h"
#include "query/query.h"
#include "query/serve.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "aging/failure.h"
#include "aging/multi.h"
#include "opt/mlv.h"
#include "opt/dual_vth.h"
#include "opt/inc_insertion.h"
#include "opt/ivc.h"
#include "opt/sizing.h"
#include "opt/sleep_transistor.h"
#include "report/derate.h"
#include "report/report.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"
#include "variation/lifetime.h"
#include "variation/variation.h"

using namespace nbtisim;

namespace {

struct CliOptions {
  std::string command;
  std::string circuit;
  double ras_active = 1.0, ras_standby = 9.0;
  double t_active = 400.0, t_standby = 330.0;
  double years = 10.0;
  bool years_set = false;  ///< --years given (the failure window defaults
                           ///< to FailureParams::max_years otherwise)
  double st_sigma = 0.05;
  int mc_samples = 300;
  double spec_margin = 5.0;
  double dynamic_power = 60.0;
  double clock_ghz = 1.0;
  double pbti_ratio = 0.35;
  std::string standby_mode;  ///< per-command default when empty
  double replication = 1e5;
  double runaway_k = 1000.0;
  double fail_dvth = 0.05;
  int n_threads = 0;
  std::string csv_path;
  bool cut_dffs = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  // The campaign analysis axis is open (analysis::AnalysisRegistry), so the
  // usage text lists whatever is registered instead of a hard-coded set.
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
               "commands: info aging multi ivc st dualvth sizing inc mc\n"
               "          lifetime thermal failure derate campaign generate\n");
  std::fprintf(stderr,
               "campaign analyses: %s\n", analyses.c_str());
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

CliOptions parse_args(int argc, char** argv) {
  if (argc < 3) usage();
  CliOptions o;
  o.command = argv[1];
  o.circuit = argv[2];
  if (!o.circuit.empty() && o.circuit.front() == '-') {
    usage(("expected a circuit before options, got " + o.circuit).c_str());
  }
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--ras") {
      const std::string v = value();
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos) usage("--ras expects A:S");
      o.ras_active = std::atof(v.substr(0, colon).c_str());
      o.ras_standby = std::atof(v.substr(colon + 1).c_str());
      if (o.ras_active <= 0.0 || o.ras_standby < 0.0) usage("bad --ras");
    } else if (arg == "--t-active") {
      o.t_active = std::atof(value().c_str());
    } else if (arg == "--t-standby") {
      o.t_standby = std::atof(value().c_str());
    } else if (arg == "--years") {
      o.years = std::atof(value().c_str());
      o.years_set = true;
      if (o.years <= 0.0) usage("bad --years");
    } else if (arg == "--sigma") {
      o.st_sigma = std::atof(value().c_str());
      if (o.st_sigma <= 0.0 || o.st_sigma > 0.5) usage("bad --sigma");
    } else if (arg == "--samples") {
      o.mc_samples = std::atoi(value().c_str());
      if (o.mc_samples < 2) usage("bad --samples");
    } else if (arg == "--margin") {
      o.spec_margin = std::atof(value().c_str());
      if (o.spec_margin <= 0.0) usage("bad --margin");
    } else if (arg == "--power") {
      o.dynamic_power = std::atof(value().c_str());
      if (o.dynamic_power < 0.0) usage("bad --power");
    } else if (arg == "--clock") {
      o.clock_ghz = std::atof(value().c_str());
      if (o.clock_ghz <= 0.0) usage("bad --clock");
    } else if (arg == "--pbti-ratio") {
      o.pbti_ratio = std::atof(value().c_str());
      if (o.pbti_ratio < 0.0) usage("bad --pbti-ratio");
    } else if (arg == "--standby") {
      o.standby_mode = value();
      if (o.standby_mode != "stressed" && o.standby_mode != "relaxed" &&
          o.standby_mode != "zeros" && o.standby_mode != "ones" &&
          o.standby_mode != "mlv") {
        usage("--standby expects stressed|relaxed|zeros|ones|mlv");
      }
    } else if (arg == "--replication") {
      o.replication = std::atof(value().c_str());
      if (o.replication <= 0.0) usage("bad --replication");
    } else if (arg == "--runaway-k") {
      o.runaway_k = std::atof(value().c_str());
      if (o.runaway_k <= 0.0) usage("bad --runaway-k");
    } else if (arg == "--fail-dvth") {
      o.fail_dvth = std::atof(value().c_str());
      if (o.fail_dvth <= 0.0) usage("bad --fail-dvth");
    } else if (arg == "--threads") {
      o.n_threads = std::atoi(value().c_str());
      if (o.n_threads < 0) usage("bad --threads");
    } else if (arg == "--csv") {
      o.csv_path = value();
    } else if (arg == "--cut-dffs") {
      o.cut_dffs = true;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  return o;
}

aging::AgingConditions conditions(const CliOptions& o) {
  aging::AgingConditions cond;
  cond.schedule = nbti::ModeSchedule::from_ras(
      o.ras_active, o.ras_standby, 1000.0, o.t_active, o.t_standby);
  cond.total_time = o.years * kSecondsPerYear;
  cond.n_threads = o.n_threads;
  return cond;
}

void emit(const CliOptions& o, const report::Table& table) {
  std::fputs(report::to_markdown(table).c_str(), stdout);
  if (!o.csv_path.empty()) {
    report::write_file(o.csv_path, report::to_csv(table));
    std::printf("\n(csv written to %s)\n", o.csv_path.c_str());
  }
}

int cmd_info(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const sta::StaEngine sta(nl, lib);
  const leakage::LeakageAnalyzer leak(nl, lib, o.t_standby);
  const std::vector<bool> zeros(nl.num_inputs(), false);

  report::Table t{{"metric", "value"}, {}};
  t.add_row({"circuit", nl.name()});
  t.add_row({"primary inputs", std::to_string(nl.num_inputs())});
  t.add_row({"primary outputs", std::to_string(nl.num_outputs())});
  t.add_row({"gates", std::to_string(nl.num_gates())});
  t.add_row({"logic depth", std::to_string(nl.depth())});
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f ns",
                to_ns(sta.analyze_fresh(o.t_active).max_delay));
  t.add_row({"fresh critical delay", buf});
  std::snprintf(buf, sizeof buf, "%.2f uA @ %g K (inputs all-0)",
                1e6 * leak.circuit_leakage(zeros), o.t_standby);
  t.add_row({"standby leakage", buf});
  emit(o, t);
  return 0;
}

int cmd_aging(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));

  const auto worst = an.analyze(aging::StandbyPolicy::all_stressed());
  const auto best = an.analyze(aging::StandbyPolicy::all_relaxed());
  const std::vector<bool> zeros(nl.num_inputs(), false);
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
  emit(o, t);
  return 0;
}

int cmd_ivc(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  const leakage::LeakageAnalyzer leak(nl, lib, o.t_standby);
  const opt::IvcResult r = opt::evaluate_ivc(
      an, leak,
      {.population = 48, .max_rounds = 12, .n_threads = o.n_threads}, 0);
  const opt::AlternatingIvcResult alt = opt::evaluate_alternating_ivc(
      an, leak,
      {.population = 48, .max_rounds = 12, .max_set_size = 8,
       .n_threads = o.n_threads});

  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.3f %%", r.worst_case_percent);
  t.add_row({"worst-case degradation", buf});
  std::snprintf(buf, sizeof buf, "%.3f %% (leakage %.2f uA)",
                r.best().degradation_percent, 1e6 * r.best().leakage);
  t.add_row({"best MLV degradation", buf});
  std::snprintf(buf, sizeof buf, "%.3f %%pt over %zu vectors",
                r.mlv_spread_percent(), r.candidates.size());
  t.add_row({"MLV spread", buf});
  std::snprintf(buf, sizeof buf, "%.3f %%", r.best_case_percent);
  t.add_row({"INC bound (all relaxed)", buf});
  std::snprintf(buf, sizeof buf, "%.2f mV -> %.2f mV (-%.1f%%)",
                to_mV(alt.static_max_dvth), to_mV(alt.rotating_max_dvth),
                alt.max_dvth_reduction_percent());
  t.add_row({"max device dVth, static -> rotating", buf});
  emit(o, t);
  return 0;
}

int cmd_st(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  opt::StParams st;
  st.sigma = o.st_sigma;
  const double horizon = o.years * kSecondsPerYear;
  const auto with_st = opt::st_circuit_degradation_series(
      an, opt::StStyle::Header, st, horizon, horizon * 1.01, 2);
  const auto without = opt::no_st_degradation_series(an, horizon,
                                                     horizon * 1.01, 2);
  const opt::StSizing sizing = opt::size_sleep_transistor(
      an.conditions().rd, an.conditions().schedule, horizon, 1e-3, st);

  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.3f %%", without.front().total_percent);
  t.add_row({"degradation w/o ST (worst case)", buf});
  std::snprintf(buf, sizeof buf, "%.3f %% (logic %.3f + ST %.3f)",
                with_st.front().total_percent, with_st.front().logic_percent,
                with_st.front().st_percent);
  t.add_row({"total vs fresh, with header ST", buf});
  std::snprintf(buf, sizeof buf, "%.1f -> %.1f (+%.2f%%)", sizing.wl_base,
                sizing.wl_nbti_aware, sizing.wl_increase_percent());
  t.add_row({"NBTI-aware (W/L) @ I_ON=1mA", buf});
  std::snprintf(buf, sizeof buf, "%.2f mV", to_mV(sizing.dvth_st));
  t.add_row({"lifetime ST dVth", buf});
  emit(o, t);
  return 0;
}

int cmd_mc(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  const variation::MonteCarloAging mc(
      an,
      {.sigma_vth = 0.012, .samples = o.mc_samples, .n_threads = o.n_threads});
  const auto fresh = mc.fresh_distribution();
  const auto aged = mc.aged_distribution(aging::StandbyPolicy::all_stressed(),
                                         o.years * kSecondsPerYear);

  report::Table t{
      {"distribution", "mean [ns]", "sigma [ps]", "-3s [ns]", "+3s [ns]"}, {}};
  auto row = [&](const char* name, const variation::DelayDistribution& d) {
    const std::vector<double> vals{to_ns(d.mean()), to_ps(d.stddev()),
                                   to_ns(d.lower3()), to_ns(d.upper3())};
    t.add_row(name, vals);
  };
  row("fresh", fresh);
  row("aged", aged);
  emit(o, t);
  return 0;
}

// The concrete standby input vector selected by --standby for commands
// that need a leakage/logic state rather than a policy: all-0 (default),
// all-1, or the minimum-leakage vector from the Fig. 7 search.
std::vector<bool> standby_vector(const CliOptions& o,
                                 const netlist::Netlist& nl,
                                 const tech::Library& lib) {
  if (o.standby_mode == "ones") return std::vector<bool>(nl.num_inputs(), true);
  if (o.standby_mode == "mlv") {
    const leakage::LeakageAnalyzer leak(nl, lib, o.t_standby);
    const opt::MlvResult mlv =
        opt::find_mlv_set(leak, {.n_threads = o.n_threads});
    if (mlv.vectors.empty()) {
      throw std::runtime_error("--standby mlv: MLV search returned no vector");
    }
    return mlv.vectors.front();
  }
  return std::vector<bool>(nl.num_inputs(), false);  // "" or "zeros"
}

// The standby policy selected by --standby for the aging-path commands:
// the bounding policies, or a concrete vector via standby_vector().
aging::StandbyPolicy standby_policy(const CliOptions& o,
                                    const netlist::Netlist& nl,
                                    const tech::Library& lib) {
  if (o.standby_mode.empty() || o.standby_mode == "stressed") {
    return aging::StandbyPolicy::all_stressed();
  }
  if (o.standby_mode == "relaxed") return aging::StandbyPolicy::all_relaxed();
  return aging::StandbyPolicy::from_vector(standby_vector(o, nl, lib));
}

int cmd_multi(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  aging::MultiAgingParams mp;
  mp.clock_hz = o.clock_ghz * 1e9;
  mp.pbti.ratio = o.pbti_ratio;
  const aging::MultiAgingReport rep =
      aging::analyze_multi_mechanism(an, standby_policy(o, nl, lib), mp);

  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.3f ns", to_ns(rep.fresh_delay));
  t.add_row({"fresh delay (slew-aware)", buf});
  std::snprintf(buf, sizeof buf, "%.3f %%", rep.nbti_only_percent());
  t.add_row({"NBTI-only degradation", buf});
  std::snprintf(buf, sizeof buf, "%.3f %%", rep.percent());
  t.add_row({"NBTI + PBTI + HCI degradation", buf});
  double max_n = 0.0, max_p = 0.0;
  for (double d : rep.nmos_dvth) max_n = std::max(max_n, d);
  for (double d : rep.pmos_dvth) max_p = std::max(max_p, d);
  std::snprintf(buf, sizeof buf, "PMOS %.2f mV / NMOS %.2f mV", to_mV(max_p),
                to_mV(max_n));
  t.add_row({"worst device shifts", buf});
  emit(o, t);
  return 0;
}

int cmd_dualvth(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const opt::DualVthResult r = opt::assign_dual_vth(
      nl, lib, conditions(o), {.delay_budget_percent = 2.0,
                               .leakage_temperature = o.t_standby});
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
  emit(o, t);
  return 0;
}

int cmd_sizing(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  const opt::SizingResult r = opt::size_for_lifetime(
      an, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = o.spec_margin, .size_step = 0.5,
       .max_moves = 600, .n_threads = o.n_threads});
  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.3f ns (+%.1f%% spec)",
                to_ns(r.spec), o.spec_margin);
  t.add_row({"lifetime timing spec", buf});
  std::snprintf(buf, sizeof buf, "%.3f -> %.3f ns", to_ns(r.aged_before),
                to_ns(r.aged_after));
  t.add_row({"aged delay before -> after", buf});
  std::snprintf(buf, sizeof buf, "%.2f %% (vs %.2f%% guard-band)",
                r.area_overhead_percent(), r.guard_band_percent());
  t.add_row({"area overhead", buf});
  t.add_row({"spec met", r.met ? "yes" : "no"});
  emit(o, t);
  return 0;
}

int cmd_inc(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const opt::IncInsertionResult r = opt::insert_control_points(
      nl, lib, conditions(o), {.max_control_points = 30});
  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu", r.controlled.size());
  t.add_row({"control points inserted", buf});
  std::snprintf(buf, sizeof buf, "%.3f -> %.3f %% (-%.1f%%)", r.aging_before,
                r.aging_after, r.aging_saving_percent());
  t.add_row({"10-year degradation", buf});
  std::snprintf(buf, sizeof buf, "%.2f %%", r.time0_penalty_percent());
  t.add_row({"time-0 delay penalty", buf});
  emit(o, t);
  return 0;
}

int cmd_lifetime(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  const variation::LifetimeResult r = variation::lifetime_distribution(
      an, aging::StandbyPolicy::all_stressed(),
      {.spec_margin_percent = o.spec_margin, .samples = o.mc_samples,
       .n_threads = o.n_threads});
  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.2f years",
                r.quantile(0.5) / kSecondsPerYear);
  t.add_row({"median lifetime", buf});
  std::snprintf(buf, sizeof buf, "%.2f years",
                r.quantile(0.01) / kSecondsPerYear);
  t.add_row({"1%-ile lifetime", buf});
  std::snprintf(buf, sizeof buf, "%.1f %%",
                100.0 * r.failure_fraction_at(o.years * kSecondsPerYear));
  t.add_row({"failed within the horizon", buf});
  std::snprintf(buf, sizeof buf, "%.1f %%", 100.0 * r.survivor_fraction());
  t.add_row({"survivors at 30 years", buf});
  emit(o, t);
  return 0;
}

int cmd_derate(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  const report::DerateTable t = report::aging_derate_table(
      an, {1.0, 2.0, 3.0, 5.0, 7.0, o.years}, o.n_threads);
  emit(o, t.to_table());
  return 0;
}

int cmd_thermal(const CliOptions& o) {
  if (o.standby_mode == "stressed" || o.standby_mode == "relaxed") {
    usage("thermal needs a concrete standby vector: zeros|ones|mlv");
  }
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const thermal::RcThermalModel model;
  const thermal::OperatingPoint op = thermal::solve_operating_point(
      nl, lib, model, standby_vector(o, nl, lib),
      {.dynamic_power_w = o.dynamic_power, .replication = o.replication,
       .runaway_temp_k = o.runaway_k});
  report::Table t{{"quantity", "value"}, {}};
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.2f K (%.2f C)", op.temperature_k,
                op.temperature_k - 273.15);
  t.add_row({"operating temperature", buf});
  std::snprintf(buf, sizeof buf, "%.3f W (die of %g blocks)", op.leakage_w,
                o.replication);
  t.add_row({"leakage power", buf});
  std::snprintf(buf, sizeof buf, "%d iterations, %s", op.iterations,
                op.converged ? "converged" : "RUNAWAY");
  t.add_row({"fixpoint", buf});
  emit(o, t);
  return 0;
}

int cmd_failure(const CliOptions& o) {
  const netlist::Netlist nl =
      analysis::load_netlist_spec(o.circuit, o.cut_dffs);
  const tech::Library lib;
  const aging::AgingAnalyzer an(nl, lib, conditions(o));
  aging::FailureParams fp;
  fp.multi.clock_hz = o.clock_ghz * 1e9;
  fp.multi.pbti.ratio = o.pbti_ratio;
  fp.fail_dvth = o.fail_dvth;
  if (o.years_set) fp.max_years = o.years;
  fp.n_threads = o.n_threads;
  const aging::FailureReport rep =
      aging::analyze_failure(an, standby_policy(o, nl, lib), fp);

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
  emit(o, t);

  report::Table curve{{"years", "P(system failed)"}, {}};
  for (const auto& [y, p] : rep.failure_curve) {
    std::snprintf(buf, sizeof buf, "%g", y);
    std::string year_s = buf;
    std::snprintf(buf, sizeof buf, "%.4f", p);
    curve.add_row({year_s, buf});
  }
  std::printf("\n");
  emit(o, curve);
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
    const CliOptions o = parse_args(argc, argv);
    if (o.command == "info") return cmd_info(o);
    if (o.command == "aging") return cmd_aging(o);
    if (o.command == "ivc") return cmd_ivc(o);
    if (o.command == "st") return cmd_st(o);
    if (o.command == "mc") return cmd_mc(o);
    if (o.command == "multi") return cmd_multi(o);
    if (o.command == "dualvth") return cmd_dualvth(o);
    if (o.command == "sizing") return cmd_sizing(o);
    if (o.command == "inc") return cmd_inc(o);
    if (o.command == "lifetime") return cmd_lifetime(o);
    if (o.command == "thermal") return cmd_thermal(o);
    if (o.command == "failure") return cmd_failure(o);
    if (o.command == "derate") return cmd_derate(o);
    usage(("unknown command " + o.command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nbtisim: %s\n", e.what());
    return 1;
  }
}
