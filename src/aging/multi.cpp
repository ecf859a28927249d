#include "aging/multi.h"

#include <stdexcept>

namespace nbtisim::aging {

PbtiStressSet build_pbti_stress(const AgingAnalyzer& analyzer,
                                const StandbyPolicy& policy) {
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const tech::Library& lib = analyzer.sta().library();
  const AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();

  if (policy.kind == StandbyPolicy::Kind::Rotating &&
      policy.rotation.empty()) {
    // An empty rotation has no standby state to average over; letting it
    // through would divide by standby_sig.size() == 0 below and poison
    // every stress fraction with NaN.
    throw std::invalid_argument(
        "build_pbti_stress: Rotating policy with an empty rotation");
  }

  // Standby net values per policy member (as in AgingAnalyzer::gate_dvth).
  std::vector<std::vector<bool>> standby_values;
  if (policy.kind == StandbyPolicy::Kind::Vector) {
    standby_values.push_back(
        sim::Simulator(nl).evaluate_forced(policy.vector, policy.forces));
  } else if (policy.kind == StandbyPolicy::Kind::Rotating) {
    const sim::Simulator simulator(nl);
    for (const std::vector<bool>& v : policy.rotation) {
      standby_values.push_back(simulator.evaluate_forced(v, policy.forces));
    }
  }

  const double vdd = lib.params().vdd;

  PbtiStressSet set;
  set.gate_begin.reserve(nl.num_gates() + 1);
  set.gate_begin.push_back(0);

  std::vector<double> pin_sp;
  for (int gi = 0; gi < nl.num_gates(); ++gi) {
    const netlist::Gate& g = nl.gate(gi);
    const tech::Cell& cell = lib.cell(analyzer.sta().gate_cell(gi));

    pin_sp.clear();
    for (netlist::NodeId in : g.fanins) {
      pin_sp.push_back(stats.probability[in]);
    }
    const std::vector<double> sp = cell.signal_probabilities(pin_sp);

    std::vector<std::vector<bool>> standby_sig;
    for (const std::vector<bool>& values : standby_values) {
      std::uint32_t bits = 0;
      for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
        bits |= values[g.fanins[pin]] ? (1u << pin) : 0u;
      }
      standby_sig.push_back(cell.signal_values(bits));
    }

    for (const tech::Stage& st : cell.stages()) {
      for (int in : st.inputs) {
        nbti::DeviceStress stress;
        // PBTI: the NMOS is stressed while its gate is HIGH.
        stress.active_stress_prob = sp[in];
        stress.vgs = vdd;
        stress.vth0 = lib.params().nmos.vth0 +
                      (cond.gate_vth_offsets.empty()
                           ? 0.0
                           : cond.gate_vth_offsets[gi]);
        switch (policy.kind) {
          case StandbyPolicy::Kind::AllStressed:
            // All gate nodes 0: NMOS relaxed (PBTI's polarity inverts
            // the paper's worst case).
            stress.standby = nbti::StandbyMode::Relaxed;
            break;
          case StandbyPolicy::Kind::AllRelaxed:
            stress.standby = nbti::StandbyMode::Stressed;
            break;
          case StandbyPolicy::Kind::Vector:
          case StandbyPolicy::Kind::Rotating: {
            int high = 0;
            for (const std::vector<bool>& sig : standby_sig) {
              high += sig[in] ? 1 : 0;
            }
            stress.standby_stress_fraction =
                static_cast<double>(high) / standby_sig.size();
            break;
          }
        }
        set.devices.push_back(stress);
      }
    }
    set.gate_begin.push_back(static_cast<int>(set.devices.size()));
  }
  return set;
}

nbti::RdKernel build_pbti_kernel(const AgingAnalyzer& analyzer,
                                 const PbtiStressSet& set) {
  return analyzer.stress_kernel(set.devices);
}

MultiAgingReport analyze_multi_mechanism(const AgingAnalyzer& analyzer,
                                         const StandbyPolicy& policy,
                                         const MultiAgingParams& params,
                                         std::optional<double> total_time) {
  if (params.pbti.ratio < 0.0) {
    throw std::invalid_argument(
        "analyze_multi_mechanism: negative pbti ratio");
  }
  const netlist::Netlist& nl = analyzer.sta().netlist();
  const tech::Library& lib = analyzer.sta().library();
  const AgingConditions& cond = analyzer.conditions();
  const sim::SignalStats& stats = analyzer.signal_stats();
  const double horizon = total_time.value_or(cond.total_time);

  MultiAgingReport rep;
  rep.pmos_dvth = analyzer.gate_dvth(policy, horizon);
  rep.nmos_dvth.assign(nl.num_gates(), 0.0);

  // Worst PBTI shift per gate: the kernel's unscaled maximum times the
  // ratio (see build_pbti_kernel for why that is bit-identical), plus HCI.
  if (params.enable_pbti) {
    const PbtiStressSet pbti = build_pbti_stress(analyzer, policy);
    const nbti::RdKernel kernel = build_pbti_kernel(analyzer, pbti);
    std::vector<double> dev_out(pbti.devices.size());
    std::vector<double> dev_scratch(pbti.devices.size());
    kernel.worst_per_gate(horizon, pbti.gate_begin, 0, nl.num_gates(),
                          rep.nmos_dvth, dev_out, dev_scratch);
    for (double& v : rep.nmos_dvth) v *= params.pbti.ratio;
  }
  if (params.enable_hci) {
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      rep.nmos_dvth[gi] +=
          nbti::hci_delta_vth(params.hci, stats.activity[nl.gate(gi).output],
                              params.clock_hz, cond.schedule, horizon);
    }
  }

  const sta::SlewStaEngine slew(nl, lib);
  rep.fresh_delay =
      slew.analyze(cond.sta_temperature, {}, cond.gate_vth_offsets).max_delay;
  rep.nbti_only_delay = slew.analyze(cond.sta_temperature, rep.pmos_dvth,
                                     cond.gate_vth_offsets)
                            .max_delay;
  rep.aged_delay = slew.analyze(cond.sta_temperature, rep.pmos_dvth,
                                cond.gate_vth_offsets, rep.nmos_dvth)
                       .max_delay;
  return rep;
}

}  // namespace nbtisim::aging
