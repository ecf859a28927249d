// Unit tests for the logic simulator and signal statistics (src/sim/*).

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "netlist/generators.h"

namespace nbtisim::sim {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using tech::GateFn;

TEST(EvalGateTest, AllFunctionsOnTwoInputs) {
  for (std::uint32_t v = 0; v < 4; ++v) {
    const bool a = v & 1, b = (v >> 1) & 1;
    const std::vector<bool> ins{a, b};
    EXPECT_EQ(eval_gate(GateFn::And, ins), a && b);
    EXPECT_EQ(eval_gate(GateFn::Nand, ins), !(a && b));
    EXPECT_EQ(eval_gate(GateFn::Or, ins), a || b);
    EXPECT_EQ(eval_gate(GateFn::Nor, ins), !(a || b));
    EXPECT_EQ(eval_gate(GateFn::Xor, ins), a != b);
    EXPECT_EQ(eval_gate(GateFn::Xnor, ins), a == b);
  }
  EXPECT_EQ(eval_gate(GateFn::Not, {true}), false);
  EXPECT_EQ(eval_gate(GateFn::Buf, {true}), true);
  EXPECT_THROW(eval_gate(GateFn::And, {}), std::invalid_argument);
}

TEST(SimulatorTest, EvaluateMatchesHandComputation) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId x = nl.add_gate(GateFn::Nand, {a, b}, "x");
  const NodeId y = nl.add_gate(GateFn::Xor, {x, c}, "y");
  nl.mark_output(y);
  Simulator sim(nl);
  for (std::uint32_t v = 0; v < 8; ++v) {
    const bool av = v & 1, bv = (v >> 1) & 1, cv = (v >> 2) & 1;
    const std::vector<bool> value = sim.evaluate({av, bv, cv});
    EXPECT_EQ(value[x], !(av && bv));
    EXPECT_EQ(value[y], (!(av && bv)) != cv);
  }
}

TEST(SimulatorTest, EvaluateRejectsWrongPiCount) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  Simulator sim(nl);
  EXPECT_THROW(sim.evaluate(std::vector<bool>(3)), std::invalid_argument);
}

TEST(SimulatorTest, WordEvaluationMatchesScalar) {
  const Netlist nl = netlist::make_alu("alu", 4);
  Simulator sim(nl);
  std::mt19937_64 rng(17);
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (auto& w : words) w = rng();
  const std::vector<std::uint64_t> wv = sim.evaluate_words(words);
  for (int bit = 0; bit < 64; bit += 7) {
    std::vector<bool> pi(nl.num_inputs());
    for (int i = 0; i < nl.num_inputs(); ++i) {
      pi[i] = (words[i] >> bit) & 1ull;
    }
    const std::vector<bool> sv = sim.evaluate(pi);
    for (int n = 0; n < nl.num_nodes(); ++n) {
      EXPECT_EQ(((wv[n] >> bit) & 1ull) != 0, sv[n] != false)
          << "node " << n << " bit " << bit;
    }
  }
}

TEST(SignalStatsTest, InputProbabilitiesAreRespected) {
  const Netlist nl = netlist::make_parity_tree("p", 3);
  std::vector<double> sp{0.1, 0.5, 0.9};
  const SignalStats st = estimate_signal_stats(nl, sp, 20000, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(st.probability[nl.inputs()[i]], sp[i], 0.02) << i;
  }
}

TEST(SignalStatsTest, ParityOfFairInputsIsHalf) {
  const Netlist nl = netlist::make_parity_tree("p", 8);
  const std::vector<double> sp(8, 0.5);
  const SignalStats st = estimate_signal_stats(nl, sp, 20000, 2);
  EXPECT_NEAR(st.probability[nl.outputs()[0]], 0.5, 0.02);
}

TEST(SignalStatsTest, NandOutputProbabilityMatchesTheory) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(GateFn::Nand, {a, b}, "x");
  nl.mark_output(x);
  const std::vector<double> sp{0.5, 0.5};
  const SignalStats st = estimate_signal_stats(nl, sp, 50000, 3);
  EXPECT_NEAR(st.probability[x], 0.75, 0.01);
}

TEST(SignalStatsTest, ActivityOfIndependentFairNodeIsHalf) {
  // Consecutive random vectors: P(toggle) = 2 p (1-p) = 0.5 at p = 0.5.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId x = nl.add_gate(GateFn::Not, {a}, "x");
  nl.mark_output(x);
  const SignalStats st =
      estimate_signal_stats(nl, std::vector<double>{0.5}, 50000, 4);
  EXPECT_NEAR(st.activity[x], 0.5, 0.02);
}

TEST(SignalStatsTest, DeterministicForFixedSeed) {
  const Netlist nl = netlist::make_alu("alu", 4);
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  const SignalStats a = estimate_signal_stats(nl, sp, 4096, 9);
  const SignalStats b = estimate_signal_stats(nl, sp, 4096, 9);
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.activity, b.activity);
}

TEST(SignalStatsTest, RejectsBadInputs) {
  const Netlist nl = netlist::make_parity_tree("p", 4);
  EXPECT_THROW(estimate_signal_stats(nl, std::vector<double>(3, 0.5), 100, 1),
               std::invalid_argument);
  EXPECT_THROW(estimate_signal_stats(nl, std::vector<double>(4, 1.5), 100, 1),
               std::invalid_argument);
  EXPECT_THROW(estimate_signal_stats(nl, std::vector<double>(4, 0.5), 0, 1),
               std::invalid_argument);
}

TEST(SignalStatsTest, ProbabilitiesAreProbabilities) {
  const Netlist nl = netlist::iscas85_like("c432");
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  const SignalStats st = estimate_signal_stats(nl, sp, 2048, 5);
  for (int n = 0; n < nl.num_nodes(); ++n) {
    EXPECT_GE(st.probability[n], 0.0);
    EXPECT_LE(st.probability[n], 1.0);
    EXPECT_GE(st.activity[n], 0.0);
    EXPECT_LE(st.activity[n], 1.0);
  }
}

// Degenerate input probabilities force constant nodes.
class ConstantInputSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConstantInputSweep, SaturatedInputsGiveSaturatedNodes) {
  const double p = GetParam();
  const Netlist nl = netlist::make_parity_tree("p", 5);
  const std::vector<double> sp(5, p);
  const SignalStats st = estimate_signal_stats(nl, sp, 1024, 6);
  for (NodeId in : nl.inputs()) {
    EXPECT_DOUBLE_EQ(st.probability[in], p);
    EXPECT_DOUBLE_EQ(st.activity[in], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Saturated, ConstantInputSweep,
                         ::testing::Values(0.0, 1.0));

TEST(SignalStatsTest, RejectsNanInputProbability) {
  // A NaN probability used to be sampled as 0.
  const Netlist nl = netlist::make_parity_tree("p", 4);
  std::vector<double> sp(4, 0.5);
  sp[2] = std::nan("");
  EXPECT_THROW(estimate_signal_stats(nl, sp, 100, 1), std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim::sim
