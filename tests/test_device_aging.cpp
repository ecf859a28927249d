// Unit tests for the temperature-aware device evaluator
// (src/nbti/device_aging.*) — reproduces the paper's Table 1 / Fig. 3 / Fig. 4
// qualitative structure at device level.

#include "nbti/device_aging.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tech/units.h"

namespace nbtisim::nbti {
namespace {

class DeviceAgingTest : public ::testing::Test {
 protected:
  DeviceAging model_;
  DeviceStress worst_{0.5, StandbyMode::Stressed, 1.0, 0.22};

  ModeSchedule ras(double standby_parts, double t_standby) const {
    return ModeSchedule::from_ras(1, standby_parts, 1000.0, 400.0, t_standby);
  }
};

TEST_F(DeviceAgingTest, ZeroAtZeroTime) {
  EXPECT_EQ(model_.delta_vth(worst_, ras(9, 330.0), 0.0), 0.0);
}

TEST_F(DeviceAgingTest, RejectsNegativeTime) {
  EXPECT_THROW(model_.delta_vth(worst_, ras(9, 330.0), -5.0),
               std::invalid_argument);
}

TEST_F(DeviceAgingTest, MonotoneInTime) {
  double prev = 0.0;
  for (double t : {1e5, 1e6, 1e7, 1e8, 3e8}) {
    const double d = model_.delta_vth(worst_, ras(9, 330.0), t);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(DeviceAgingTest, MonotoneInStandbyTemperature) {
  // Fig. 4: hotter standby -> larger shift (standby-stressed device).
  double prev = 0.0;
  for (double ts : {330.0, 350.0, 370.0, 390.0, 400.0}) {
    const double d = model_.delta_vth(worst_, ras(5, ts), kTenYears);
    EXPECT_GT(d, prev) << "T_standby=" << ts;
    prev = d;
  }
}

TEST_F(DeviceAgingTest, Table1HotStandbyGrowsWithStandbyShare) {
  // T_standby = T_active = 400 K: more standby = more stress time.
  double prev = 0.0;
  for (double parts : {1.0, 3.0, 5.0, 7.0, 9.0}) {
    const double d = model_.delta_vth(worst_, ras(parts, 400.0), kTenYears);
    EXPECT_GT(d, prev) << "RAS=1:" << parts;
    prev = d;
  }
}

TEST_F(DeviceAgingTest, Table1ColdStandbyShrinksWithStandbyShare) {
  // T_standby = 330 K: more standby = more slow-diffusion time.
  double prev = 1.0;
  for (double parts : {1.0, 3.0, 5.0, 7.0, 9.0}) {
    const double d = model_.delta_vth(worst_, ras(parts, 330.0), kTenYears);
    EXPECT_LT(d, prev) << "RAS=1:" << parts;
    prev = d;
  }
}

TEST_F(DeviceAgingTest, Table1CrossoverTemperatureIsFlat) {
  // Near T_standby ~= 370 K the paper observes RAS-insensitivity.
  const double d1 = model_.delta_vth(worst_, ras(1, 370.0), kTenYears);
  const double d9 = model_.delta_vth(worst_, ras(9, 370.0), kTenYears);
  EXPECT_NEAR(d1 / d9, 1.0, 0.05);
}

TEST_F(DeviceAgingTest, Table1MagnitudeBand) {
  // Worst cell of Table 1 (RAS = 1:9, both modes at 400 K): tens of mV.
  const double d = model_.delta_vth(worst_, ras(9, 400.0), kTenYears);
  EXPECT_GT(to_mV(d), 30.0);
  EXPECT_LT(to_mV(d), 60.0);
}

TEST_F(DeviceAgingTest, WorstCaseTempAssumptionIsPessimistic) {
  const ModeSchedule s = ras(9, 330.0);
  const double aware = model_.delta_vth(worst_, s, kTenYears);
  const double pessimistic = model_.delta_vth_worst_case_temp(worst_, s, kTenYears);
  EXPECT_GT(pessimistic, aware);
  // And it matches the explicit hot-standby schedule.
  EXPECT_NEAR(pessimistic, model_.delta_vth(worst_, ras(9, 400.0), kTenYears),
              1e-15);
}

TEST_F(DeviceAgingTest, RelaxedStandbyAgesLessThanStressedStandby) {
  DeviceStress relaxed = worst_;
  relaxed.standby = StandbyMode::Relaxed;
  const ModeSchedule s = ras(9, 330.0);
  EXPECT_LT(model_.delta_vth(relaxed, s, kTenYears),
            model_.delta_vth(worst_, s, kTenYears));
}

TEST_F(DeviceAgingTest, StandbyTemperatureIrrelevantWhenRelaxed) {
  // Table 4's observation: "the temperature has negligible effect on [the]
  // NBTI relaxation phase" — by construction, exact here.
  DeviceStress relaxed = worst_;
  relaxed.standby = StandbyMode::Relaxed;
  const double cold = model_.delta_vth(relaxed, ras(9, 330.0), kTenYears);
  const double hot = model_.delta_vth(relaxed, ras(9, 400.0), kTenYears);
  EXPECT_NEAR(cold, hot, 1e-15);
}

TEST_F(DeviceAgingTest, NeverStressedDeviceDoesNotAge) {
  DeviceStress idle{0.0, StandbyMode::Relaxed, 1.0, 0.22};
  EXPECT_EQ(model_.delta_vth(idle, ras(9, 330.0), kTenYears), 0.0);
}

TEST_F(DeviceAgingTest, SeriesMatchesPointEvaluations) {
  const ModeSchedule s = ras(5, 330.0);
  const auto series = model_.delta_vth_series(worst_, s, 1e6, 1e8, 5);
  ASSERT_EQ(series.size(), 5u);
  for (const auto& [t, d] : series) {
    EXPECT_NEAR(d, model_.delta_vth(worst_, s, t), 1e-15);
  }
}

TEST_F(DeviceAgingTest, HigherInitialVthAgesLess) {
  DeviceStress low = worst_, high = worst_;
  low.vth0 = 0.20;
  high.vth0 = 0.40;
  const ModeSchedule s = ras(1, 330.0);
  EXPECT_GT(model_.delta_vth(low, s, kTenYears),
            model_.delta_vth(high, s, kTenYears));
}

TEST_F(DeviceAgingTest, StressContextIsBitIdenticalToDirectEval) {
  // The precomputed-context fast path must not change a single bit: the
  // circuit pipeline caches contexts and the determinism guarantee depends
  // on both paths producing the same doubles.
  const std::vector<DeviceStress> stresses = {
      worst_,
      {0.23, StandbyMode::Relaxed, 1.0, 0.22},
      {0.0, StandbyMode::Relaxed, 1.0, 0.25},   // never stressed
      {1.0, StandbyMode::Stressed, 1.1, 0.20},  // DC limit
      {0.6, StandbyMode::Stressed, 1.0, 0.22, 0.25},
  };
  for (double parts : {1.0, 9.0}) {
    const ModeSchedule s = ras(parts, 330.0);
    for (const DeviceStress& stress : stresses) {
      const DeviceAging::StressContext ctx = model_.make_context(stress, s);
      for (double t : {1.0, 500.0, 1e4, 1e6, 3e8}) {
        EXPECT_EQ(model_.delta_vth(ctx, t), model_.delta_vth(stress, s, t))
            << "RAS=1:" << parts << " t=" << t;
      }
      EXPECT_EQ(model_.delta_vth(ctx, 0.0), 0.0);
      EXPECT_THROW(model_.delta_vth(ctx, -1.0), std::invalid_argument);
    }
  }
}

TEST_F(DeviceAgingTest, StressContextMatchesExactRecursionToo) {
  const DeviceAging exact({}, AcEvalMethod::ExactRecursion);
  const ModeSchedule s = ras(9, 330.0);
  const DeviceAging::StressContext ctx = exact.make_context(worst_, s);
  for (double t : {1e5, 1e6, 1e7}) {
    EXPECT_EQ(exact.delta_vth(ctx, t), exact.delta_vth(worst_, s, t));
  }
}

TEST_F(DeviceAgingTest, ExactRecursionMatchesClosedForm) {
  const DeviceAging exact({}, AcEvalMethod::ExactRecursion);
  const ModeSchedule s = ras(9, 330.0);
  // Moderate horizon keeps the exact recursion cheap (3e5 cycles).
  const double a = model_.delta_vth(worst_, s, 1e7);
  const double b = exact.delta_vth(worst_, s, 1e7);
  EXPECT_NEAR(a / b, 1.0, 2e-3);
}

// Full RAS x T_standby sweep: degradation is monotone in standby
// temperature for every RAS split (the structure behind Table 1).
class RasTempSweep : public ::testing::TestWithParam<double> {};

TEST_P(RasTempSweep, MonotoneInStandbyTemperature) {
  const DeviceAging model;
  const DeviceStress stress{0.5, StandbyMode::Stressed, 1.0, 0.22};
  const double parts = GetParam();
  double prev = 0.0;
  for (double ts = 330.0; ts <= 400.0; ts += 10.0) {
    const ModeSchedule s = ModeSchedule::from_ras(1, parts, 1000.0, 400.0, ts);
    const double d = model.delta_vth(stress, s, kTenYears);
    EXPECT_GT(d, prev) << "RAS=1:" << parts << " Ts=" << ts;
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(RasSplits, RasTempSweep,
                         ::testing::Values(1.0, 3.0, 5.0, 7.0, 9.0));

TEST_F(DeviceAgingTest, MakeContextRejectsNanStressProbability) {
  // Used to return a context whose delta_vth was a silent 0.
  DeviceStress bad = worst_;
  bad.active_stress_prob = std::nan("");
  EXPECT_THROW(model_.make_context(bad, ras(9, 330.0)), std::invalid_argument);
}

TEST_F(DeviceAgingTest, PrefixOverloadMatchesOracleContext) {
  const ModeSchedule s = ras(9, 330.0);
  for (const DeviceStress& stress :
       {worst_, DeviceStress{0.2, StandbyMode::Relaxed, 1.0, 0.25},
        DeviceStress{0.0, StandbyMode::Relaxed, 1.0, 0.22}}) {
    const double duty = model_.equivalent_duty(stress, s);
    const DeviceAging::StressContext want = model_.make_context(stress, s);
    const DeviceAging::StressContext got =
        model_.make_context(stress, s, make_sn_prefix(duty));
    EXPECT_EQ(got.always_zero, want.always_zero);
    EXPECT_EQ(got.ac.duty, want.ac.duty);
    EXPECT_EQ(got.prefix.duty, want.prefix.duty);
    EXPECT_EQ(got.prefix.s, want.prefix.s);
    EXPECT_EQ(got.prefix.step, want.prefix.step);
    EXPECT_EQ(got.kv, want.kv);
    for (double t : {1.0e3, 1.0e6, 3.0e8}) {
      EXPECT_EQ(model_.delta_vth(got, t), model_.delta_vth(want, t)) << t;
    }
  }
  EXPECT_THROW(model_.make_context(worst_, s, make_sn_prefix(0.5)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim::nbti
