/// \file reference.h
/// \brief Deliberately naive reference evaluators for the differential tests.
///
/// Each function here recomputes a result the slow, obvious way — one-shot
/// per-device ΔVth calls per gate, full delay rebuild + full STA per sizing
/// trial, a fresh analyze() per derate cell, every gate's leakage
/// characterized afresh at every electrothermal iterate — and serves as the
/// oracle that tests/test_differential.cpp property-tests the optimized
/// engines against across random netlists, seeds, thread counts and
/// horizons.  Keep them boring: no caching, no incremental updates, no parallelism.  The one
/// deliberate sophistication is FP discipline — every accumulation mirrors
/// the production expression order, so the comparisons can demand bitwise
/// equality instead of tolerances.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aging/aging.h"
#include "aging/failure.h"
#include "campaign/store.h"
#include "common/json.h"
#include "opt/sizing.h"
#include "report/derate.h"
#include "report/report.h"
#include "sim/simulator.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"

namespace nbtisim::testsupport {

/// Worst-PMOS ΔVth per gate after \p total_time under \p policy, rebuilt
/// from public inputs only: signal_stats() through each cell's signal
/// probabilities, the PMOS gate signals, and a fresh simulation of every
/// standby vector.  Each device is evaluated with the one-shot
/// DeviceAging::delta_vth(stress, schedule, t) — no stress contexts, no
/// descriptor cache, no SoA kernel — and the gate keeps the maximum, in
/// device order starting from 0.
inline std::vector<double> reference_gate_dvth(
    const aging::AgingAnalyzer& analyzer, const aging::StandbyPolicy& policy,
    double total_time) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const tech::Library& lib = analyzer.sta().library();
  const aging::AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();
  const nbti::DeviceAging model(cond.rd, cond.method);

  std::vector<std::vector<bool>> standby_values;
  if (policy.kind == aging::StandbyPolicy::Kind::Vector) {
    standby_values.push_back(
        sim::Simulator(nl).evaluate_forced(policy.vector, policy.forces));
  } else if (policy.kind == aging::StandbyPolicy::Kind::Rotating) {
    for (const std::vector<bool>& v : policy.rotation) {
      standby_values.push_back(
          sim::Simulator(nl).evaluate_forced(v, policy.forces));
    }
  }

  std::vector<double> dvth(nl.num_gates(), 0.0);
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    const tech::Cell& cell = lib.cell(analyzer.sta().gate_cell(gi));
    std::vector<double> pin_sp;
    for (netlist::NodeId in : g.fanins) pin_sp.push_back(stats.probability[in]);
    const std::vector<double> sp = cell.signal_probabilities(pin_sp);

    for (const tech::PmosDevice& pm : cell.pmos_devices()) {
      nbti::DeviceStress stress;
      stress.active_stress_prob = 1.0 - sp[pm.gate_signal];
      stress.vgs = lib.params().vdd;
      stress.vth0 = lib.params().pmos.vth0 +
                    (cond.gate_vth_offsets.empty() ? 0.0
                                                   : cond.gate_vth_offsets[gi]);
      switch (policy.kind) {
        case aging::StandbyPolicy::Kind::AllStressed:
          stress.standby = nbti::StandbyMode::Stressed;
          break;
        case aging::StandbyPolicy::Kind::AllRelaxed:
          stress.standby = nbti::StandbyMode::Relaxed;
          break;
        case aging::StandbyPolicy::Kind::Vector:
        case aging::StandbyPolicy::Kind::Rotating: {
          int stressed = 0;
          for (const std::vector<bool>& values : standby_values) {
            std::uint32_t bits = 0;
            for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
              bits |= values[g.fanins[pin]] ? (1u << pin) : 0u;
            }
            stressed += cell.signal_values(bits)[pm.gate_signal] ? 0 : 1;
          }
          stress.standby_stress_fraction =
              static_cast<double>(stressed) / standby_values.size();
          break;
        }
      }
      dvth[gi] = std::max(dvth[gi],
                          model.delta_vth(stress, cond.schedule, total_time));
    }
  }
  return dvth;
}

/// All aged gate delays for the given per-gate size factors, rebuilt from
/// nothing: rediscovers the fanout structure on every call.
inline std::vector<double> reference_aged_delays(
    const aging::AgingAnalyzer& analyzer, const std::vector<double>& dvth,
    const std::vector<double>& sizes) {
  const sta::StaEngine& sta = analyzer.sta();
  const tech::Library& lib = sta.library();
  const netlist::Netlist& nl = sta.netlist();
  const double temp = analyzer.conditions().sta_temperature;
  const double alpha = lib.params().pmos.alpha;
  const double vdd = lib.params().vdd;
  const double vth0 = lib.params().pmos.vth0;
  const double wire = lib.params().wire_cap_per_fanout;
  const double po_load = lib.input_cap(lib.find("BUF"), 0) + wire;

  std::vector<double> delays(nl.num_gates());
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::NodeId out = nl.gate(gi).output;
    // Size-independent load first, then the sized sink pins — the same
    // two-phase accumulation SizedTiming uses.
    double fixed = 0.0;
    std::vector<std::pair<int, double>> sink_caps;
    for (int sink : nl.fanout_gates(out)) {
      const netlist::Gate& sg = nl.gate(sink);
      for (std::size_t pin = 0; pin < sg.fanins.size(); ++pin) {
        if (sg.fanins[pin] == out) {
          sink_caps.emplace_back(
              sink, lib.input_cap(sta.gate_cell(sink), static_cast<int>(pin)));
          fixed += wire;
        }
      }
    }
    if (std::find(nl.outputs().begin(), nl.outputs().end(), out) !=
        nl.outputs().end()) {
      fixed += po_load;
    }
    double load = fixed;
    for (const auto& [sink, cap] : sink_caps) load += cap * sizes[sink];
    delays[gi] = lib.cell_delay(sta.gate_cell(gi), load / sizes[gi], temp) *
                 (1.0 + alpha * dvth[gi] / (vdd - vth0));
  }
  return delays;
}

/// Full-rebuild STA for the given size factors.
inline sta::TimingResult reference_aged_timing(
    const aging::AgingAnalyzer& analyzer, const std::vector<double>& dvth,
    const std::vector<double>& sizes) {
  return analyzer.sta().analyze(reference_aged_delays(analyzer, dvth, sizes));
}

/// The pre-optimization sizing loop: serial, full delay rebuild + full STA
/// per candidate trial, and a redundant full re-evaluation after every
/// accepted move.
inline opt::SizingResult reference_size_for_lifetime(
    const aging::AgingAnalyzer& analyzer, const aging::StandbyPolicy& policy,
    const opt::SizingParams& params = {}) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const std::vector<double> dvth = analyzer.gate_dvth(policy);

  opt::SizingResult r;
  r.sizes.assign(nl.num_gates(), 1.0);
  r.fresh_delay = analyzer.sta()
                      .analyze(analyzer.sta().gate_delays(
                          analyzer.conditions().sta_temperature))
                      .max_delay;
  r.spec = r.fresh_delay * (1.0 + params.spec_margin_percent / 100.0);

  sta::TimingResult aged = reference_aged_timing(analyzer, dvth, r.sizes);
  r.aged_before = aged.max_delay;

  while (aged.max_delay > r.spec && r.moves < params.max_moves) {
    int best_gate = -1;
    double best_ratio = 0.0;
    for (netlist::NodeId node : aged.critical_path) {
      const int gi = nl.driver_gate(node);
      if (gi < 0) continue;
      if (r.sizes[gi] + params.size_step > params.max_size) continue;
      std::vector<double> trial = r.sizes;
      trial[gi] += params.size_step;
      const double d = reference_aged_timing(analyzer, dvth, trial).max_delay;
      const double gain = aged.max_delay - d;
      if (gain > 0.0 && gain / params.size_step > best_ratio) {
        best_ratio = gain / params.size_step;
        best_gate = gi;
      }
    }
    if (best_gate < 0) break;
    r.sizes[best_gate] += params.size_step;
    ++r.moves;
    aged = reference_aged_timing(analyzer, dvth, r.sizes);
  }

  r.aged_after = aged.max_delay;
  r.met = aged.max_delay <= r.spec;
  return r;
}

/// Per-cell derate table: a fresh full analyze() for every (policy, year).
inline report::DerateTable reference_derate_table(
    const aging::AgingAnalyzer& analyzer, std::vector<double> years) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  report::DerateTable table;
  table.years = std::move(years);
  table.policy_names = {"worst_case", "inputs_all_zero", "best_case"};
  const std::vector<aging::StandbyPolicy> policies{
      aging::StandbyPolicy::all_stressed(),
      aging::StandbyPolicy::from_vector(
          std::vector<bool>(nl.num_inputs(), false)),
      aging::StandbyPolicy::all_relaxed(),
  };
  for (const aging::StandbyPolicy& policy : policies) {
    std::vector<double> col;
    for (double y : table.years) {
      const aging::DegradationReport rep =
          analyzer.analyze(policy, y * kSecondsPerYear);
      col.push_back(rep.aged_delay / rep.fresh_delay);
    }
    table.factors.push_back(std::move(col));
  }
  return table;
}

/// Serial failure suite: plain per-device delta_vth calls (no stress
/// contexts), serial per-gate loops, and its own inline crossing /
/// Weibull arithmetic — mirroring the production expression order so the
/// differential test can demand bitwise equality.
inline aging::FailureReport reference_failure_report(
    const aging::AgingAnalyzer& analyzer, const aging::StandbyPolicy& policy,
    const aging::FailureParams& params = {}) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const tech::Library& lib = analyzer.sta().library();
  const aging::AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();
  const int n_gates = nl.num_gates();
  const double vdd = lib.params().vdd;
  const double period = cond.schedule.period();
  const double active_fraction =
      period > 0.0 ? cond.schedule.t_active / period : 0.0;

  // The same geometric grid as the production suite.
  const double t_max = params.max_years * kSecondsPerYear;
  const double t_min = t_max / 1.0e3;
  const double ratio =
      std::pow(t_max / t_min, 1.0 / static_cast<double>(params.time_points - 1));
  std::vector<double> t_sec(params.time_points);
  for (int i = 0; i < params.time_points; ++i) {
    t_sec[i] = t_min * std::pow(ratio, static_cast<double>(i));
  }
  t_sec.back() = t_max;
  const int n_points = static_cast<int>(t_sec.size());

  const auto naive_crossing = [&](const std::vector<double>& v) {
    double t_prev = 0.0;
    double v_prev = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] >= params.fail_dvth) {
        if (v[i] <= v_prev) return t_sec[i];
        return t_prev + (t_sec[i] - t_prev) * (params.fail_dvth - v_prev) /
                            (v[i] - v_prev);
      }
      t_prev = t_sec[i];
      v_prev = v[i];
    }
    return aging::kNeverFails;
  };

  aging::FailureReport rep;
  rep.weibull_beta = params.weibull_beta;

  if (params.enable_nbti) {
    std::vector<std::vector<double>> series(n_points);
    for (int i = 0; i < n_points; ++i) {
      series[i] = analyzer.gate_dvth(policy, t_sec[i]);
    }
    aging::MechanismMttf m;
    m.name = "nbti";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      std::vector<double> v(n_points);
      for (int i = 0; i < n_points; ++i) v[i] = series[i][gi];
      m.gate_mttf[gi] = naive_crossing(v) / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.multi.enable_pbti) {
    const aging::PbtiStressSet pbti = aging::build_pbti_stress(analyzer,
                                                               policy);
    const nbti::DeviceAging model(cond.rd, cond.method);
    aging::MechanismMttf m;
    m.name = "pbti";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      std::vector<double> worst(n_points, 0.0);
      for (int di = pbti.gate_begin[gi]; di < pbti.gate_begin[gi + 1]; ++di) {
        for (int i = 0; i < n_points; ++i) {
          // The one-shot overload — no StressContext — which the device
          // model documents as bit-identical to the cached path.
          worst[i] = std::max(
              worst[i], params.multi.pbti.ratio *
                            model.delta_vth(pbti.devices[di], cond.schedule,
                                            t_sec[i]));
        }
      }
      m.gate_mttf[gi] = naive_crossing(worst) / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.multi.enable_hci) {
    aging::MechanismMttf m;
    m.name = "hci";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      const double activity = stats.activity[nl.gate(gi).output];
      std::vector<double> v(n_points);
      for (int i = 0; i < n_points; ++i) {
        v[i] = nbti::hci_delta_vth(params.multi.hci, activity,
                                   params.multi.clock_hz, cond.schedule,
                                   t_sec[i]);
      }
      m.gate_mttf[gi] = naive_crossing(v) / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.enable_tddb) {
    double rate = 0.0;
    if (active_fraction > 0.0) {
      rate += active_fraction /
              nbti::tddb_mttf(params.tddb, vdd, cond.schedule.temp_active);
    }
    if (active_fraction < 1.0) {
      rate += (1.0 - active_fraction) /
              nbti::tddb_mttf(params.tddb, vdd, cond.schedule.temp_standby);
    }
    const double mttf =
        rate > 0.0 ? 1.0 / rate / kSecondsPerYear : aging::kNeverFails;
    aging::MechanismMttf m;
    m.name = "tddb";
    m.gate_mttf.assign(n_gates, mttf);
    rep.mechanisms.push_back(std::move(m));
  }

  if (params.enable_em) {
    const sta::StaEngine& sta = analyzer.sta();
    const double wire = lib.params().wire_cap_per_fanout;
    const double po_load = lib.input_cap(lib.find("BUF"), 0) + wire;
    aging::MechanismMttf m;
    m.name = "em";
    m.gate_mttf.assign(n_gates, aging::kNeverFails);
    for (int gi = 0; gi < n_gates; ++gi) {
      const netlist::NodeId out = nl.gate(gi).output;
      double load = 0.0;
      for (int sink : nl.fanout_gates(out)) {
        const netlist::Gate& sg = nl.gate(sink);
        for (std::size_t pin = 0; pin < sg.fanins.size(); ++pin) {
          if (sg.fanins[pin] == out) {
            load += wire +
                    lib.input_cap(sta.gate_cell(sink), static_cast<int>(pin));
          }
        }
      }
      if (std::find(nl.outputs().begin(), nl.outputs().end(), out) !=
          nl.outputs().end()) {
        load += po_load;
      }
      const double current =
          stats.activity[out] * params.multi.clock_hz * load * vdd;
      if (active_fraction <= 0.0) continue;
      m.gate_mttf[gi] =
          nbti::em_mttf(params.em, current, cond.schedule.temp_active) /
          active_fraction / kSecondsPerYear;
    }
    rep.mechanisms.push_back(std::move(m));
  }

  const double gamma = std::tgamma(1.0 + 1.0 / params.weibull_beta);
  rep.lambda = 0.0;
  for (aging::MechanismMttf& m : rep.mechanisms) {
    double lm = 0.0;
    for (double mttf : m.gate_mttf) {
      if (std::isfinite(mttf) && mttf > 0.0) {
        lm += std::pow(gamma / mttf, params.weibull_beta);
      }
    }
    m.system_mttf = lm > 0.0 ? std::pow(lm, -1.0 / params.weibull_beta) * gamma
                             : aging::kNeverFails;
    rep.lambda += lm;
  }
  rep.system_mttf = rep.lambda > 0.0
                        ? std::pow(rep.lambda, -1.0 / params.weibull_beta) *
                              gamma
                        : aging::kNeverFails;
  rep.failure_curve.reserve(params.curve_years.size());
  for (double y : params.curve_years) {
    rep.failure_curve.emplace_back(
        y, 1.0 - std::exp(-std::pow(y, params.weibull_beta) * rep.lambda));
  }
  return rep;
}

/// Electrothermal fixpoint of solve_operating_point, with the leakage at
/// every iterate characterized afresh: a simulation of the standby vector
/// and Library::cell_leakage per gate, summed in gate order — no lookup
/// table, no memo.
inline thermal::OperatingPoint reference_operating_point(
    const netlist::Netlist& nl, const tech::Library& lib,
    const thermal::RcThermalModel& model,
    const std::vector<bool>& standby_vector,
    const thermal::ElectrothermalParams& params) {
  const auto leakage_watts = [&](double temp_k) {
    const std::vector<bool> value = sim::Simulator(nl).evaluate(standby_vector);
    double total = 0.0;
    for (const netlist::Gate& g : nl.gates()) {
      std::uint32_t bits = 0;
      for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
        bits |= value[g.fanins[pin]] ? (1u << pin) : 0u;
      }
      total += lib.cell_leakage(
          lib.id_for(g.fn, static_cast<int>(g.fanins.size())), bits, temp_k);
    }
    return total * params.supply_v * params.replication;
  };
  thermal::OperatingPoint op;
  double temp = model.steady_state(params.dynamic_power_w);
  for (int it = 0; it < params.max_iterations; ++it) {
    op.iterations = it + 1;
    const double p_leak = leakage_watts(temp);
    const double next = model.steady_state(params.dynamic_power_w + p_leak);
    if (!std::isfinite(next) || next > params.runaway_temp_k) {
      op.temperature_k = next;
      op.leakage_w = p_leak;
      return op;
    }
    if (std::abs(next - temp) < params.tolerance_k) {
      op.temperature_k = next;
      op.leakage_w = p_leak;
      op.converged = true;
      return op;
    }
    temp = next;
  }
  op.temperature_k = temp;
  op.leakage_w = leakage_watts(temp);
  return op;
}

/// Serial electrothermal sweep: one reference_operating_point per power.
inline std::vector<thermal::OperatingPoint> reference_operating_points(
    const netlist::Netlist& nl, const tech::Library& lib,
    const thermal::RcThermalModel& model,
    const std::vector<bool>& standby_vector,
    const std::vector<double>& dynamic_powers,
    const thermal::ElectrothermalParams& params = {}) {
  std::vector<thermal::OperatingPoint> points;
  points.reserve(dynamic_powers.size());
  for (double p : dynamic_powers) {
    thermal::ElectrothermalParams cell = params;
    cell.dynamic_power_w = p;
    points.push_back(
        reference_operating_point(nl, lib, model, standby_vector, cell));
  }
  return points;
}

// ---------------------------------------------------------------------------
// Naive campaign-store query: full rescan, no index, no parallelism.

namespace refquery_detail {

using common::json::Value;

inline bool is_coord(std::string_view key) {
  return key == "netlist" || key == "ras" || key == "analysis" ||
         key == "hash" || key == "t_active" || key == "t_standby" ||
         key == "years";
}

/// The queryable member of a row: one of the seven coordinates at top
/// level, otherwise a metric. nullptr when absent.
inline const Value* row_member(const Value& row, const std::string& key) {
  if (is_coord(key)) return row.find(key);
  if (const Value* metrics = row.find("metrics")) return metrics->find(key);
  return nullptr;
}

inline bool predicate_holds(const Value& pred, const Value& v) {
  if (pred.is_string() || pred.is_number()) return v == pred;
  if (pred.is_array()) {
    for (const Value& cand : pred.as_array()) {
      if (v == cand) return true;
    }
    return false;
  }
  // {"min":..,"max":..}
  if (!v.is_number() || std::isnan(v.as_number())) return false;
  const double d = v.as_number();
  if (const Value* lo = pred.find("min")) {
    if (d < lo->as_number()) return false;
  }
  if (const Value* hi = pred.find("max")) {
    if (d > hi->as_number()) return false;
  }
  return true;
}

/// Canonical order key of one row, computed from the row itself.
inline bool row_less(const Value& a, const Value& b) {
  const auto str = [](const Value& row, const char* key) {
    const Value* v = row.find(key);
    return v != nullptr && v->is_string() ? v->as_string() : std::string();
  };
  const auto num = [](const Value& row, const char* key) {
    const Value* v = row.find(key);
    return v != nullptr && v->is_number()
               ? v->as_number()
               : std::numeric_limits<double>::quiet_NaN();
  };
  const auto cmp_num = [](double x, double y) {
    const bool nx = std::isnan(x), ny = std::isnan(y);
    if (nx || ny) return nx == ny ? 0 : (nx ? -1 : 1);
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  };
  for (const char* key : {"netlist", "ras"}) {
    if (int c = str(a, key).compare(str(b, key))) return c < 0;
  }
  for (const char* key : {"t_active", "t_standby", "years"}) {
    if (int c = cmp_num(num(a, key), num(b, key))) return c < 0;
  }
  if (int c = str(a, "analysis").compare(str(b, "analysis"))) return c < 0;
  return str(a, "hash") < str(b, "hash");
}

inline std::string render_cell(const Value* v) {
  if (v == nullptr || v->is_null()) return std::string();
  if (v->is_string()) return v->as_string();
  if (v->is_number()) return common::json::format_number(v->as_number());
  return common::json::dump(*v);
}

}  // namespace refquery_detail

/// Evaluates one query document against the store at \p store_path the
/// obvious way: loads *every* row through ShardedStore (any layout), parses
/// and filters them all, sorts canonically, and renders the same table the
/// optimized indexed path must produce.
inline report::Table reference_query(const std::string& store_path,
                                     const common::json::Value& qdoc) {
  namespace d = refquery_detail;
  using common::json::Value;

  campaign::ShardedStore store(store_path, 1);
  std::vector<const Value*> matched;
  for (const Value* row : store.all_rows()) {
    bool ok = true;
    if (const Value* where = qdoc.find("where")) {
      for (const auto& [key, pred] : where->as_object()) {
        const Value* v = d::row_member(*row, key);
        // Metric predicates apply to scalar metrics only — a structured
        // payload (or an absent member) never matches.
        if (!d::is_coord(key) && v != nullptr && !v->is_number()) v = nullptr;
        if (v == nullptr || !d::predicate_holds(pred, *v)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) matched.push_back(row);
  }
  std::sort(matched.begin(), matched.end(),
            [](const Value* a, const Value* b) { return d::row_less(*a, *b); });

  // Scalar metric names, first appearance in canonical row order.
  std::vector<std::string> metric_names;
  for (const Value* row : matched) {
    if (const Value* metrics = row->find("metrics")) {
      for (const auto& [name, v] : metrics->as_object()) {
        if (v.is_number() && std::find(metric_names.begin(),
                                       metric_names.end(),
                                       name) == metric_names.end()) {
          metric_names.push_back(name);
        }
      }
    }
  }

  report::Table table;
  const Value* agg = qdoc.find("agg");
  if (agg == nullptr) {
    std::vector<std::string> columns;
    if (const Value* select = qdoc.find("select")) {
      for (const Value& c : select->as_array()) columns.push_back(c.as_string());
    } else {
      columns = {"netlist", "ras",   "t_active",
                 "t_standby", "years", "analysis"};
      columns.insert(columns.end(), metric_names.begin(), metric_names.end());
    }
    table.headers = columns;
    for (const Value* row : matched) {
      std::vector<std::string> cells;
      for (const std::string& col : columns) {
        cells.push_back(d::render_cell(d::row_member(*row, col)));
      }
      table.add_row(std::move(cells));
    }
  } else {
    const std::string op = agg->at("op").as_string();
    std::vector<std::string> by;
    if (const Value* b = agg->find("by")) {
      for (const Value& c : b->as_array()) by.push_back(c.as_string());
    }
    std::vector<std::string> agg_metrics;
    if (op != "count") {
      if (const Value* ms = agg->find("metrics")) {
        for (const Value& m : ms->as_array()) {
          agg_metrics.push_back(m.as_string());
        }
      } else {
        agg_metrics = metric_names;
      }
    }
    table.headers = by;
    table.headers.push_back("count");
    for (const std::string& m : agg_metrics) table.headers.push_back(op + "_" + m);

    // Group in canonical row order, key = rendered by-tuple.
    std::vector<std::pair<std::vector<std::string>,
                          std::vector<const Value*>>> groups;
    for (const Value* row : matched) {
      std::vector<std::string> key;
      for (const std::string& col : by) {
        key.push_back(d::render_cell(d::row_member(*row, col)));
      }
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& g) { return g.first == key; });
      if (it == groups.end()) {
        groups.emplace_back(std::move(key), std::vector<const Value*>{});
        it = std::prev(groups.end());
      }
      it->second.push_back(row);
    }
    for (auto& [key, rows] : groups) {
      std::vector<std::string> cells = key;
      cells.push_back(common::json::format_number(
          static_cast<double>(rows.size())));
      for (const std::string& mname : agg_metrics) {
        std::vector<double> values;
        for (const Value* row : rows) {
          const Value* v = d::row_member(*row, mname);
          if (v != nullptr && v->is_number() &&
              std::isfinite(v->as_number())) {
            values.push_back(v->as_number());
          }
        }
        if (values.empty()) {
          cells.emplace_back();
          continue;
        }
        double r = 0.0;
        if (op == "min") {
          r = *std::min_element(values.begin(), values.end());
        } else if (op == "max") {
          r = *std::max_element(values.begin(), values.end());
        } else if (op == "sum" || op == "mean") {
          for (double v : values) r += v;
          if (op == "mean") r /= static_cast<double>(values.size());
        } else {  // quantile
          std::sort(values.begin(), values.end());
          const double q = agg->number_or("q", 0.5);
          const double h = q * static_cast<double>(values.size() - 1);
          const std::size_t lo = static_cast<std::size_t>(h);
          const std::size_t hi = std::min(lo + 1, values.size() - 1);
          r = values[lo] +
              (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
        }
        cells.push_back(common::json::format_number(r));
      }
      table.add_row(std::move(cells));
    }
  }
  if (const Value* limit = qdoc.find("limit")) {
    const auto n = static_cast<std::size_t>(limit->as_number());
    if (table.rows.size() > n) table.rows.resize(n);
  }
  return table;
}

}  // namespace nbtisim::testsupport
