// Unit tests for the electrothermal fixpoint solver
// (src/thermal/electrothermal.*).

#include "thermal/electrothermal.h"

#include <gtest/gtest.h>

#include <cmath>

#include "netlist/generators.h"

namespace nbtisim::thermal {
namespace {

class ElectrothermalTest : public ::testing::Test {
 protected:
  tech::Library lib_;
  netlist::Netlist c432_ = netlist::iscas85_like("c432");
  RcThermalModel model_;
  std::vector<bool> zeros_ = std::vector<bool>(36, false);
};

TEST_F(ElectrothermalTest, ConvergesAtModerateDynamicPower) {
  const OperatingPoint op = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 60.0, .replication = 1e5});
  EXPECT_TRUE(op.converged);
  // Leakage heating pushes the die above the leakage-free steady state.
  EXPECT_GT(op.temperature_k, model_.steady_state(60.0));
  EXPECT_GT(op.leakage_w, 0.0);
  EXPECT_LT(op.iterations, 40);
}

TEST_F(ElectrothermalTest, MoreDynamicPowerMeansHotterPoint) {
  const OperatingPoint low = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 20.0, .replication = 1e5});
  const OperatingPoint high = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 100.0, .replication = 1e5});
  ASSERT_TRUE(low.converged);
  ASSERT_TRUE(high.converged);
  EXPECT_GT(high.temperature_k, low.temperature_k);
  // Superlinear leakage: the hot point leaks disproportionately more.
  EXPECT_GT(high.leakage_w / low.leakage_w, 1.5);
}

TEST_F(ElectrothermalTest, NegligibleReplicationMatchesPlainSteadyState) {
  const OperatingPoint op = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 60.0, .replication = 1.0});
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.temperature_k, model_.steady_state(60.0), 0.1);
}

TEST_F(ElectrothermalTest, ExtremeReplicationTriggersRunaway) {
  const OperatingPoint op = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 120.0, .replication = 3e8, .max_iterations = 60});
  EXPECT_FALSE(op.converged);
}

TEST_F(ElectrothermalTest, LeakageStateMatters) {
  // A high-leakage standby vector yields a (slightly) hotter fixpoint.
  std::vector<bool> ones(c432_.num_inputs(), true);
  const leakage::LeakageAnalyzer leak(c432_, lib_, 380.0);
  const double l0 = leak.circuit_leakage(zeros_);
  const double l1 = leak.circuit_leakage(ones);
  const OperatingPoint op0 = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 60.0, .replication = 3e5});
  const OperatingPoint op1 = solve_operating_point(
      c432_, lib_, model_, ones,
      {.dynamic_power_w = 60.0, .replication = 3e5});
  ASSERT_TRUE(op0.converged);
  ASSERT_TRUE(op1.converged);
  if (l1 > l0) {
    EXPECT_GE(op1.temperature_k, op0.temperature_k);
  } else {
    EXPECT_LE(op1.temperature_k, op0.temperature_k);
  }
}

TEST_F(ElectrothermalTest, SweepMatchesCellwiseSolvesBitIdentically) {
  const std::vector<double> powers = {20.0, 60.0, 100.0};
  const ElectrothermalParams params{.replication = 1e5};
  std::vector<OperatingPoint> want;
  for (double p : powers) {
    ElectrothermalParams cell = params;
    cell.dynamic_power_w = p;
    want.push_back(solve_operating_point(c432_, lib_, model_, zeros_, cell));
  }
  for (int n_threads : {1, 2, 8}) {
    const std::vector<OperatingPoint> sweep = solve_operating_points(
        c432_, lib_, model_, zeros_, powers, params, n_threads);
    ASSERT_EQ(sweep.size(), powers.size());
    for (std::size_t i = 0; i < powers.size(); ++i) {
      EXPECT_EQ(sweep[i].temperature_k, want[i].temperature_k);
      EXPECT_EQ(sweep[i].leakage_w, want[i].leakage_w);
      EXPECT_EQ(sweep[i].iterations, want[i].iterations);
      EXPECT_EQ(sweep[i].converged, want[i].converged);
    }
  }
}

TEST_F(ElectrothermalTest, ZeroDynamicPowerStillConvergesAboveAmbient) {
  // Leakage alone heats the die: the fixpoint sits above ambient but well
  // below the moderate-power point.
  const OperatingPoint op = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 0.0, .replication = 1e5});
  ASSERT_TRUE(op.converged);
  EXPECT_GT(op.temperature_k, model_.steady_state(0.0));
  EXPECT_GT(op.leakage_w, 0.0);
  const OperatingPoint busy = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 60.0, .replication = 1e5});
  EXPECT_LT(op.temperature_k, busy.temperature_k);
}

TEST_F(ElectrothermalTest, LoweredRunawayThresholdForcesRunaway) {
  // The same benign configuration that converges with the default 1000 K
  // ceiling is declared runaway when the ceiling sits below its fixpoint.
  const ElectrothermalParams base{.dynamic_power_w = 60.0,
                                  .replication = 1e5};
  const OperatingPoint ok =
      solve_operating_point(c432_, lib_, model_, zeros_, base);
  ASSERT_TRUE(ok.converged);
  ElectrothermalParams strict = base;
  strict.runaway_temp_k = ok.temperature_k - 1.0;
  const OperatingPoint hot =
      solve_operating_point(c432_, lib_, model_, zeros_, strict);
  EXPECT_FALSE(hot.converged);
}

TEST_F(ElectrothermalTest, UnreachableToleranceExitsAtMaxIterations) {
  const OperatingPoint op = solve_operating_point(
      c432_, lib_, model_, zeros_,
      {.dynamic_power_w = 60.0, .replication = 1e5, .tolerance_k = 1e-12,
       .max_iterations = 5});
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.iterations, 5);
  // The reported point is still self-consistent data, not garbage.
  EXPECT_GT(op.temperature_k, model_.steady_state(60.0));
  EXPECT_GT(op.leakage_w, 0.0);
}

TEST_F(ElectrothermalTest, ConvergedLeakageMatchesReportedTemperature) {
  // The returned leakage must be the one that produced the converged
  // temperature: T == steady_state(P_dyn + P_leak) within tolerance.
  const ElectrothermalParams params{.dynamic_power_w = 60.0,
                                    .replication = 1e5};
  const OperatingPoint op =
      solve_operating_point(c432_, lib_, model_, zeros_, params);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.temperature_k,
              model_.steady_state(params.dynamic_power_w + op.leakage_w),
              params.tolerance_k);
}

TEST_F(ElectrothermalTest, EmptySweepYieldsNoPoints) {
  const std::vector<double> none;
  EXPECT_TRUE(solve_operating_points(c432_, lib_, model_, zeros_, none,
                                     {.replication = 1e5})
                  .empty());
}

TEST_F(ElectrothermalTest, RejectsBadParameters) {
  EXPECT_THROW(solve_operating_point(c432_, lib_, model_, zeros_,
                                     {.replication = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(solve_operating_point(c432_, lib_, model_, zeros_,
                                     {.supply_v = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(solve_operating_point(c432_, lib_, model_, zeros_,
                                     {.max_iterations = 0}),
               std::invalid_argument);
  EXPECT_THROW(solve_operating_point(c432_, lib_, model_, zeros_,
                                     {.runaway_temp_k = 0.0}),
               std::invalid_argument);
}

TEST_F(ElectrothermalTest, RejectsNanParameters) {
  // Used to iterate to a reported runaway instead of failing.
  const double nan = std::nan("");
  EXPECT_THROW(solve_operating_point(c432_, lib_, model_, zeros_,
                                     {.replication = nan}),
               std::invalid_argument);
  EXPECT_THROW(solve_operating_point(c432_, lib_, model_, zeros_,
                                     {.dynamic_power_w = nan}),
               std::invalid_argument);
  EXPECT_THROW(solve_operating_point(c432_, lib_, model_, zeros_,
                                     {.tolerance_k = nan}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim::thermal
