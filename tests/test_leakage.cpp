// Unit tests for circuit leakage analysis (src/leakage/*).

#include "leakage/leakage.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "netlist/generators.h"
#include "sim/simulator.h"

namespace nbtisim::leakage {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using tech::GateFn;

class LeakageTest : public ::testing::Test {
 protected:
  tech::Library lib_;
};

TEST_F(LeakageTest, SingleGateMatchesTable) {
  Netlist nl("one");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(GateFn::Nand, {a, b}, "x");
  nl.mark_output(x);
  const LeakageAnalyzer an(nl, lib_, 400.0);
  const tech::CellId nand2 = lib_.find("NAND2");
  for (std::uint32_t v = 0; v < 4; ++v) {
    const std::vector<bool> pi{(v & 1) != 0, (v & 2) != 0};
    EXPECT_DOUBLE_EQ(an.circuit_leakage(pi), an.table().leakage(nand2, v));
  }
}

TEST_F(LeakageTest, GateLeakageVectorHasOneEntryPerGate) {
  const Netlist nl = netlist::make_alu("alu", 4);
  const LeakageAnalyzer an(nl, lib_, 330.0);
  const std::vector<bool> pi(nl.num_inputs(), false);
  EXPECT_EQ(an.gate_leakage(pi).size(), static_cast<std::size_t>(nl.num_gates()));
}

TEST_F(LeakageTest, CircuitLeakageIsSumOfGateLeakages) {
  const Netlist nl = netlist::iscas85_like("c432");
  const LeakageAnalyzer an(nl, lib_, 400.0);
  const std::vector<bool> pi(nl.num_inputs(), true);
  const std::vector<double> per_gate = an.gate_leakage(pi);
  double sum = 0.0;
  for (double l : per_gate) sum += l;
  EXPECT_NEAR(an.circuit_leakage(pi), sum, 1e-15);
}

TEST_F(LeakageTest, LeakageDependsOnInputVector) {
  const Netlist nl = netlist::iscas85_like("c432");
  const LeakageAnalyzer an(nl, lib_, 400.0);
  std::mt19937_64 rng(7);
  double lo = 1e9, hi = 0.0;
  for (int k = 0; k < 32; ++k) {
    std::vector<bool> pi(nl.num_inputs());
    for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = (rng() & 1) != 0;
    const double l = an.circuit_leakage(pi);
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  // The whole point of IVC: a meaningful spread across vectors.
  EXPECT_GT(hi / lo, 1.02);
}

TEST_F(LeakageTest, HotterCircuitLeaksMore) {
  const Netlist nl = netlist::iscas85_like("c880");
  const LeakageAnalyzer cold(nl, lib_, 330.0);
  const LeakageAnalyzer hot(nl, lib_, 400.0);
  const std::vector<bool> pi(nl.num_inputs(), false);
  EXPECT_GT(hot.circuit_leakage(pi), 2.0 * cold.circuit_leakage(pi));
}

TEST_F(LeakageTest, ExpectedLeakageLiesWithinObservedRange) {
  const Netlist nl = netlist::make_priority_controller("pc", 9, 3);
  const LeakageAnalyzer an(nl, lib_, 400.0);
  const sim::SignalStats stats = sim::estimate_signal_stats(
      nl, std::vector<double>(nl.num_inputs(), 0.5), 4096, 3);
  const double expected = an.expected_leakage(stats.probability);

  std::mt19937_64 rng(11);
  double lo = 1e9, hi = 0.0, sum = 0.0;
  const int kTrials = 200;
  for (int k = 0; k < kTrials; ++k) {
    std::vector<bool> pi(nl.num_inputs());
    for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = (rng() & 1) != 0;
    const double l = an.circuit_leakage(pi);
    lo = std::min(lo, l);
    hi = std::max(hi, l);
    sum += l;
  }
  EXPECT_GT(expected, 0.8 * lo);
  EXPECT_LT(expected, 1.2 * hi);
  // Independence approximation should track the Monte-Carlo mean closely.
  EXPECT_NEAR(expected / (sum / kTrials), 1.0, 0.1);
}

TEST_F(LeakageTest, ExpectedLeakageRejectsSizeMismatch) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  const LeakageAnalyzer an(nl, lib_, 400.0);
  EXPECT_THROW(an.expected_leakage(std::vector<double>(2, 0.5)),
               std::invalid_argument);
}

TEST_F(LeakageTest, WrongPiCountRejected) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  const LeakageAnalyzer an(nl, lib_, 400.0);
  EXPECT_THROW(an.circuit_leakage(std::vector<bool>(5)), std::invalid_argument);
}

TEST_F(LeakageTest, RejectsNonFiniteOrNonPositiveTemperature) {
  const Netlist nl = netlist::iscas85_like("c432");
  for (double t : {std::nan(""), 0.0, -1.0}) {
    EXPECT_THROW(LeakageAnalyzer(nl, lib_, t), std::invalid_argument) << t;
  }
}

}  // namespace
}  // namespace nbtisim::leakage
