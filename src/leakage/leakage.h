/// \file leakage.h
/// \brief Circuit-level standby/active leakage estimation (paper eq. 24).
///
/// Standby leakage under a candidate input vector: simulate the vector,
/// look up every gate's leakage in the per-vector table, sum.  Expected
/// active leakage: weight each gate's per-vector leakage by the joint
/// probability of its fanin states (independence assumption), i.e.
///   I_leakage(v) = sum_IN I_l(v, IN) * Prob(v, IN)      (eq. 24)
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "sim/simulator.h"
#include "tech/library.h"

namespace nbtisim::leakage {

/// Leakage estimator bound to (netlist, library, temperature).  Its tables
/// come from the library's shared memo (tech::Library::leakage_table), so
/// analyzers at one temperature share their characterized entries.
class LeakageAnalyzer {
 public:
  /// \param gate_vth_offsets optional per-gate threshold offsets (dual-Vth
  ///        assignment); one extra lookup table is used per distinct offset
  ///        value (offsets within 1e-9 V of an earlier one share its table)
  /// \throws std::invalid_argument for a temperature that is not finite and
  ///         positive, or mis-sized offsets
  LeakageAnalyzer(const netlist::Netlist& nl, const tech::Library& lib,
                  double temp_k, std::vector<double> gate_vth_offsets = {});

  double temperature() const { return table_->temperature(); }
  const tech::LeakageTable& table() const { return *table_; }
  const netlist::Netlist& netlist() const { return *nl_; }
  const tech::Library& library() const { return *lib_; }

  /// Per-gate leakage when the primary inputs hold \p pi_values [A].
  std::vector<double> gate_leakage(const std::vector<bool>& pi_values) const;

  /// Total circuit leakage under a static input vector [A].
  double circuit_leakage(const std::vector<bool>& pi_values) const;

  /// Expected leakage given per-net signal probabilities (eq. 24) [A].
  /// \p node_sp is indexed by NodeId (as produced by estimate_signal_stats).
  double expected_leakage(std::span<const double> node_sp) const;

 private:
  const tech::LeakageTable& table_for(int gate_idx) const;

  const netlist::Netlist* nl_;
  const tech::Library* lib_;
  std::shared_ptr<const tech::LeakageTable> table_;  // nominal-Vth table
  // One per distinct offset, keyed on the first offset of its 1e-9 group.
  std::vector<std::shared_ptr<const tech::LeakageTable>> extra_;
  std::vector<int> table_of_gate_;           // -1 = nominal, else extra index
  std::vector<tech::CellId> cells_;
};

}  // namespace nbtisim::leakage
