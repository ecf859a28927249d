#include "analysis/context.h"

#include <cstdio>
#include <stdexcept>

#include "netlist/bench_io.h"
#include "netlist/generators.h"
#include "netlist/verilog_io.h"
#include "opt/mlv.h"
#include "tech/units.h"

namespace nbtisim::analysis {

netlist::Netlist load_netlist_spec(const std::string& spec, bool cut_dffs) {
  if (spec.starts_with("dag:")) {
    int n_inputs = 0, n_gates = 0;
    long long seed = 0;
    if (std::sscanf(spec.c_str(), "dag:%dx%d@%lld", &n_inputs, &n_gates,
                    &seed) != 3 ||
        n_inputs < 2 || n_gates < 1 || seed < 0) {
      throw std::invalid_argument(
          "netlist: bad generator spec \"" + spec +
          "\" (expected dag:<inputs>x<gates>@<seed>)");
    }
    std::string name = spec;
    for (char& c : name) {
      if (c == ':' || c == '@') c = '_';
    }
    return netlist::make_random_dag(
        name, {.n_inputs = n_inputs, .n_outputs = std::max(2, n_inputs / 2),
               .n_gates = n_gates, .seed = static_cast<std::uint64_t>(seed),
               .locality = 0.75});
  }
  if (spec.starts_with("mult:") || spec.starts_with("alu:")) {
    const bool is_mult = spec.starts_with("mult:");
    int width = 0;
    if (std::sscanf(spec.c_str(), is_mult ? "mult:%d" : "alu:%d", &width) !=
            1 ||
        width < 2) {
      throw std::invalid_argument("netlist: bad generator spec \"" + spec +
                                  "\" (expected " +
                                  (is_mult ? "mult:<bits>" : "alu:<width>") +
                                  " with size >= 2)");
    }
    std::string name = spec;
    for (char& c : name) {
      if (c == ':' || c == '@') c = '_';
    }
    return is_mult ? netlist::make_multiplier(name, width)
                   : netlist::make_alu(name, width);
  }
  if (spec.ends_with(".v")) return netlist::load_verilog(spec);
  if (spec.find('/') != std::string::npos || spec.ends_with(".bench")) {
    std::string name = spec;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name.erase(0, slash + 1);
    return netlist::parse_bench(netlist::read_text_file(spec, "netlist"), name,
                                {.cut_dffs = cut_dffs});
  }
  return netlist::iscas85_like(spec);
}

EvalContext ContextPool::context(const std::string& netlist_spec,
                                 const Condition& cond) {
  return EvalContext(this, netlist_spec, cond);
}

namespace {

/// Fetches (or creates) the slot for \p key under \p mutex, then runs
/// \p build under the slot's own once_flag. Distinct keys build
/// concurrently; a throwing build resets the flag so a later caller
/// retries (std::call_once semantics).
template <typename T, typename Map, typename Build>
const T& fill_slot(std::mutex& mutex, Map& map, const std::string& key,
                   Build&& build) {
  std::shared_ptr<typename Map::mapped_type::element_type> slot;
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = map.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<typename Map::mapped_type::element_type>();
    }
    slot = it->second;
  }
  std::call_once(slot->once, [&] { slot->value = build(); });
  return *slot->value;
}

}  // namespace

const netlist::Netlist& ContextPool::netlist_for(const std::string& nl_spec) {
  return fill_slot<netlist::Netlist>(mutex_, netlists_, nl_spec, [&] {
    return std::make_shared<netlist::Netlist>(
        load_netlist_spec(nl_spec, cut_dffs_));
  });
}

aging::AgingConditions aging_conditions(const Condition& cond, const Params& p,
                                        int n_threads) {
  aging::AgingConditions c;
  c.schedule = nbti::ModeSchedule::from_ras(cond.ras_active, cond.ras_standby,
                                            1000.0, cond.t_active,
                                            cond.t_standby);
  c.total_time = cond.years * kSecondsPerYear;
  c.sp_vectors = p.sp_vectors;
  c.seed = p.seed;
  c.n_threads = n_threads;
  return c;
}

const aging::AgingAnalyzer& ContextPool::analyzer_for(
    const std::string& nl_spec, const Condition& cond) {
  const std::string key = nl_spec + "|" + cond.label();
  const netlist::Netlist& nl = netlist_for(nl_spec);
  return fill_slot<aging::AgingAnalyzer>(mutex_, analyzers_, key, [&] {
    return std::make_shared<aging::AgingAnalyzer>(
        nl, lib_, aging_conditions(cond, params_, n_threads_));
  });
}

const leakage::LeakageAnalyzer& ContextPool::leakage_for(
    const std::string& nl_spec, const Condition& cond) {
  char key[64];
  std::snprintf(key, sizeof key, "|%g", cond.t_standby);
  const netlist::Netlist& nl = netlist_for(nl_spec);
  return fill_slot<leakage::LeakageAnalyzer>(
      mutex_, leakages_, nl_spec + key, [&] {
        return std::make_shared<leakage::LeakageAnalyzer>(nl, lib_,
                                                          cond.t_standby);
      });
}

double EvalContext::horizon() const { return cond_.years * kSecondsPerYear; }

std::vector<bool> EvalContext::standby_vector() {
  const std::string& mode = params().standby;
  const int n_inputs = netlist().num_inputs();
  if (mode == "stressed" || mode == "relaxed") {
    throw std::invalid_argument("standby \"" + mode +
                                "\" is a policy, not an input vector "
                                "(expected zeros|ones|mlv)");
  }
  if (mode == "ones") return std::vector<bool>(n_inputs, true);
  if (mode == "mlv") {
    const opt::MlvResult mlv =
        opt::find_mlv_set(standby_leakage(), {.n_threads = n_threads()});
    if (mlv.vectors.empty()) {
      throw std::runtime_error("standby mlv: MLV search returned no vector");
    }
    return mlv.vectors.front();
  }
  return std::vector<bool>(n_inputs, false);  // unset or "zeros"
}

aging::StandbyPolicy EvalContext::standby_policy() {
  const std::string& mode = params().standby;
  if (mode.empty() || mode == "stressed") {
    return aging::StandbyPolicy::all_stressed();
  }
  if (mode == "relaxed") return aging::StandbyPolicy::all_relaxed();
  return aging::StandbyPolicy::from_vector(standby_vector());
}

}  // namespace nbtisim::analysis
