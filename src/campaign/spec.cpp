#include "campaign/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <string_view>

namespace nbtisim::campaign {
namespace {

/// Throws naming the first member of \p doc outside \p known: a typo or a
/// retired option must fail loudly instead of running with the default.
void reject_unknown_keys(const common::json::Value& doc,
                         std::initializer_list<std::string_view> known,
                         const std::string& where) {
  for (const auto& member : doc.as_object()) {
    if (std::find(known.begin(), known.end(), member.first) == known.end()) {
      throw std::invalid_argument("campaign: unknown " + where + " key \"" +
                                  member.first + "\"");
    }
  }
}

/// Throws naming the first member of \p doc holding a non-finite number,
/// directly or as an array element: every range check below compares with
/// `<` or `<=`, which NaN passes.
void reject_non_finite(const common::json::Value& doc) {
  for (const auto& [key, value] : doc.as_object()) {
    const common::json::Array one{value};
    for (const common::json::Value& v : value.is_array() ? value.as_array()
                                                         : one) {
      if (v.is_number() && !std::isfinite(v.as_number())) {
        throw std::invalid_argument("campaign: \"" + key +
                                    "\" must be finite");
      }
    }
  }
}

}  // namespace

Condition condition_from_json(const common::json::Value& doc) {
  reject_unknown_keys(doc, {"ras", "t_active", "t_standby", "years"},
                      "condition");
  Condition c;
  if (const common::json::Value* ras = doc.find("ras")) {
    const std::string& v = ras->as_string();
    const std::size_t colon = v.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("campaign: condition \"ras\" expects \"A:S\"");
    }
    // The whole side must be a number: "1x" is NaN, not 1.
    auto number = [](const std::string& text) {
      char* end = nullptr;
      const double x = std::strtod(text.c_str(), &end);
      return !text.empty() && *end == '\0' ? x : std::nan("");
    };
    c.ras_active = number(v.substr(0, colon));
    c.ras_standby = number(v.substr(colon + 1));
    if (!std::isfinite(c.ras_active) || !std::isfinite(c.ras_standby) ||
        c.ras_active <= 0.0 || c.ras_standby < 0.0) {
      throw std::invalid_argument("campaign: bad \"ras\" value " + v);
    }
  }
  c.t_active = doc.number_or("t_active", c.t_active);
  c.t_standby = doc.number_or("t_standby", c.t_standby);
  c.years = doc.number_or("years", c.years);
  for (double v : {c.t_active, c.t_standby, c.years}) {
    if (!std::isfinite(v) || v <= 0.0) {
      throw std::invalid_argument(
          "campaign: condition values must be positive and finite");
    }
  }
  return c;
}

void params_from_json(const common::json::Value& doc, CampaignParams& p) {
  reject_unknown_keys(
      doc,
      {"sp_vectors", "seed", "samples", "spec_margin", "population",
       "max_rounds", "st_sigma", "sizing_margin", "sizing_step",
       "sizing_max_size", "sizing_max_moves", "sizing_slack_window",
       "sizing_moves_per_round", "derate_years", "pareto_samples",
       "pareto_rounds", "pareto_flips", "crit_samples", "crit_sigma",
       "clock_ghz", "pbti_ratio", "thermal_power", "thermal_replication",
       "thermal_runaway_k", "fail_dvth", "fail_max_years", "fail_points",
       "weibull_beta", "fail_curve_years", "standby"},
      "params");
  reject_non_finite(doc);
  p.sp_vectors = doc.int_or("sp_vectors", p.sp_vectors);
  p.seed = static_cast<std::uint64_t>(
      doc.number_or("seed", static_cast<double>(p.seed)));
  p.samples = doc.int_or("samples", p.samples);
  p.spec_margin = doc.number_or("spec_margin", p.spec_margin);
  p.population = doc.int_or("population", p.population);
  p.max_rounds = doc.int_or("max_rounds", p.max_rounds);
  p.st_sigma = doc.number_or("st_sigma", p.st_sigma);
  p.sizing_margin = doc.number_or("sizing_margin", p.sizing_margin);
  p.sizing_step = doc.number_or("sizing_step", p.sizing_step);
  p.sizing_max_size = doc.number_or("sizing_max_size", p.sizing_max_size);
  p.sizing_max_moves = doc.int_or("sizing_max_moves", p.sizing_max_moves);
  p.sizing_slack_window =
      doc.number_or("sizing_slack_window", p.sizing_slack_window);
  p.sizing_moves_per_round =
      doc.int_or("sizing_moves_per_round", p.sizing_moves_per_round);
  if (const common::json::Value* years = doc.find("derate_years")) {
    p.derate_years.clear();
    for (const common::json::Value& y : years->as_array()) {
      p.derate_years.push_back(y.as_number());
    }
  }
  p.pareto_samples = doc.int_or("pareto_samples", p.pareto_samples);
  p.pareto_rounds = doc.int_or("pareto_rounds", p.pareto_rounds);
  p.pareto_flips = doc.int_or("pareto_flips", p.pareto_flips);
  p.crit_samples = doc.int_or("crit_samples", p.crit_samples);
  p.crit_sigma = doc.number_or("crit_sigma", p.crit_sigma);
  p.clock_ghz = doc.number_or("clock_ghz", p.clock_ghz);
  p.pbti_ratio = doc.number_or("pbti_ratio", p.pbti_ratio);
  p.thermal_power = doc.number_or("thermal_power", p.thermal_power);
  p.thermal_replication =
      doc.number_or("thermal_replication", p.thermal_replication);
  p.thermal_runaway_k = doc.number_or("thermal_runaway_k", p.thermal_runaway_k);
  p.fail_dvth = doc.number_or("fail_dvth", p.fail_dvth);
  p.fail_max_years = doc.number_or("fail_max_years", p.fail_max_years);
  p.fail_points = doc.int_or("fail_points", p.fail_points);
  p.weibull_beta = doc.number_or("weibull_beta", p.weibull_beta);
  if (const common::json::Value* years = doc.find("fail_curve_years")) {
    p.fail_curve_years.clear();
    for (const common::json::Value& y : years->as_array()) {
      p.fail_curve_years.push_back(y.as_number());
    }
  }
  p.standby = doc.string_or("standby", p.standby);

  if (p.sp_vectors < 64 || p.samples < 2 || p.spec_margin <= 0.0 ||
      p.population < 2 || p.max_rounds < 1 || p.st_sigma <= 0.0 ||
      p.st_sigma > 0.5) {
    throw std::invalid_argument("campaign: out-of-range \"params\" value");
  }
  if (p.sizing_margin <= 0.0 || p.sizing_step <= 0.0 ||
      p.sizing_max_size < 1.0 || p.sizing_max_moves < 1 ||
      p.sizing_slack_window < 0.0 || p.sizing_moves_per_round < 1) {
    throw std::invalid_argument("campaign: out-of-range sizing param");
  }
  if (p.derate_years.empty()) {
    throw std::invalid_argument("campaign: \"derate_years\" must be non-empty");
  }
  for (double y : p.derate_years) {
    if (y <= 0.0) {
      throw std::invalid_argument("campaign: \"derate_years\" must be > 0");
    }
  }
  if (p.pareto_samples < 2 || p.pareto_rounds < 0 || p.pareto_flips < 1 ||
      p.crit_samples < 2 || p.crit_sigma <= 0.0) {
    throw std::invalid_argument("campaign: out-of-range \"params\" value");
  }
  if (p.clock_ghz <= 0.0 || p.pbti_ratio < 0.0) {
    throw std::invalid_argument("campaign: out-of-range multi param");
  }
  if (p.thermal_power < 0.0 || p.thermal_replication <= 0.0 ||
      p.thermal_runaway_k <= 0.0) {
    throw std::invalid_argument("campaign: out-of-range thermal param");
  }
  if (p.fail_dvth <= 0.0 || p.fail_max_years <= 0.0 || p.fail_points < 2 ||
      p.weibull_beta <= 0.0) {
    throw std::invalid_argument("campaign: out-of-range failure param");
  }
  if (p.fail_curve_years.empty()) {
    throw std::invalid_argument(
        "campaign: \"fail_curve_years\" must be non-empty");
  }
  for (double y : p.fail_curve_years) {
    if (y <= 0.0) {
      throw std::invalid_argument("campaign: \"fail_curve_years\" must be > 0");
    }
  }
  if (!p.standby.empty() && p.standby != "stressed" &&
      p.standby != "relaxed" && p.standby != "zeros" && p.standby != "ones" &&
      p.standby != "mlv") {
    throw std::invalid_argument(
        "campaign: \"standby\" expects stressed|relaxed|zeros|ones|mlv");
  }
}

std::string Task::key(const CampaignParams& params) const {
  const analysis::Analysis& a =
      analysis::AnalysisRegistry::global().at(analysis);
  return netlist + "|" + condition.label() + "|" + analysis + "|" +
         a.fingerprint(params);
}

CampaignSpec spec_from_json(const common::json::Value& doc) {
  reject_unknown_keys(doc,
                      {"name", "netlists", "conditions", "analyses", "params",
                       "n_threads", "shards", "cut_dffs"},
                      "top-level");
  reject_non_finite(doc);
  CampaignSpec spec;
  spec.name = doc.string_or("name", "campaign");

  for (const common::json::Value& n : doc.at("netlists").as_array()) {
    spec.netlists.push_back(n.as_string());
  }

  const common::json::Value* conditions = doc.find("conditions");
  if (conditions == nullptr) {
    spec.conditions.push_back(Condition{});
  } else {
    for (const common::json::Value& c : conditions->as_array()) {
      spec.conditions.push_back(condition_from_json(c));
    }
  }

  for (const common::json::Value& a : doc.at("analyses").as_array()) {
    // at() throws invalid_argument listing the registered names.
    spec.analyses.emplace_back(
        analysis::AnalysisRegistry::global().at(a.as_string()).name());
  }

  if (const common::json::Value* params = doc.find("params")) {
    params_from_json(*params, spec.params);
  }

  spec.n_threads = doc.int_or("n_threads", 0);
  if (spec.n_threads < 0) {
    throw std::invalid_argument("campaign: n_threads must be >= 0");
  }
  spec.shards = doc.int_or("shards", 16);
  if (spec.shards != 1 && spec.shards != 2 && spec.shards != 4 &&
      spec.shards != 8 && spec.shards != 16) {
    throw std::invalid_argument("campaign: shards must be 1, 2, 4, 8 or 16");
  }
  spec.cut_dffs = doc.bool_or("cut_dffs", false);

  if (spec.netlists.empty() || spec.conditions.empty() ||
      spec.analyses.empty()) {
    throw std::invalid_argument(
        "campaign: netlists, conditions and analyses must all be non-empty");
  }
  return spec;
}

CampaignSpec load_spec(const std::string& path) {
  return spec_from_json(common::json::load_file(path));
}

std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<Task> expand(const CampaignSpec& spec) {
  if (spec.netlists.empty() || spec.conditions.empty() ||
      spec.analyses.empty()) {
    throw std::invalid_argument("campaign: cannot expand an empty grid axis");
  }
  std::vector<Task> tasks;
  tasks.reserve(spec.netlists.size() * spec.conditions.size() *
                spec.analyses.size());
  for (const std::string& nl : spec.netlists) {
    for (const Condition& cond : spec.conditions) {
      for (const std::string& a : spec.analyses) {
        Task t;
        t.index = static_cast<int>(tasks.size());
        t.netlist = nl;
        t.condition = cond;
        t.analysis = a;
        t.hash = fnv1a_hex(t.key(spec.params));
        tasks.push_back(std::move(t));
      }
    }
  }
  return tasks;
}

}  // namespace nbtisim::campaign
