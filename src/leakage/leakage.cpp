#include "leakage/leakage.h"

#include <cmath>
#include <stdexcept>

namespace nbtisim::leakage {

LeakageAnalyzer::LeakageAnalyzer(const netlist::Netlist& nl,
                                 const tech::Library& lib, double temp_k,
                                 std::vector<double> gate_vth_offsets)
    : nl_(&nl), lib_(&lib), table_(lib.leakage_table(temp_k)) {
  cells_.reserve(nl.num_gates());
  for (const netlist::Gate& g : nl.gates()) {
    cells_.push_back(lib.id_for(g.fn, static_cast<int>(g.fanins.size())));
  }

  if (!gate_vth_offsets.empty()) {
    if (static_cast<int>(gate_vth_offsets.size()) != nl.num_gates()) {
      throw std::invalid_argument(
          "LeakageAnalyzer: gate_vth_offsets size mismatch");
    }
    table_of_gate_.assign(nl.num_gates(), -1);
    std::vector<double> distinct;
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      const double off = gate_vth_offsets[gi];
      if (off == 0.0) continue;
      int idx = -1;
      for (std::size_t k = 0; k < distinct.size(); ++k) {
        if (std::abs(distinct[k] - off) < 1e-9) {
          idx = static_cast<int>(k);
          break;
        }
      }
      if (idx < 0) {
        idx = static_cast<int>(distinct.size());
        distinct.push_back(off);
        extra_.push_back(lib.leakage_table(temp_k, off));
      }
      table_of_gate_[gi] = idx;
    }
  }
}

const tech::LeakageTable& LeakageAnalyzer::table_for(int gate_idx) const {
  if (table_of_gate_.empty() || table_of_gate_[gate_idx] < 0) return *table_;
  return *extra_[table_of_gate_[gate_idx]];
}

std::vector<double> LeakageAnalyzer::gate_leakage(
    const std::vector<bool>& pi_values) const {
  sim::Simulator simulator(*nl_);
  const std::vector<bool> value = simulator.evaluate(pi_values);
  std::vector<double> leak(nl_->num_gates());
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const netlist::Gate& g = nl_->gate(gi);
    std::uint32_t bits = 0;
    for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
      bits |= value[g.fanins[pin]] ? (1u << pin) : 0u;
    }
    leak[gi] = table_for(gi).leakage(cells_[gi], bits);
  }
  return leak;
}

double LeakageAnalyzer::circuit_leakage(const std::vector<bool>& pi_values) const {
  double total = 0.0;
  for (double l : gate_leakage(pi_values)) total += l;
  return total;
}

double LeakageAnalyzer::expected_leakage(
    std::span<const double> node_sp) const {
  if (static_cast<int>(node_sp.size()) != nl_->num_nodes()) {
    throw std::invalid_argument("expected_leakage: SP size mismatch");
  }
  double total = 0.0;
  std::vector<double> pin_sp;
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const netlist::Gate& g = nl_->gate(gi);
    pin_sp.clear();
    for (netlist::NodeId in : g.fanins) pin_sp.push_back(node_sp[in]);
    total += table_for(gi).expected_leakage(cells_[gi], pin_sp);
  }
  return total;
}

}  // namespace nbtisim::leakage
