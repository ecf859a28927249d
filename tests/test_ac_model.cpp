// Unit tests for the multicycle AC-stress model (src/nbti/ac_model.*).

#include "nbti/ac_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tech/units.h"

namespace nbtisim::nbti {
namespace {

class AcModelTest : public ::testing::Test {
 protected:
  RdParams p_;
  static constexpr double kVgs = 1.0;
  static constexpr double kVth = 0.22;
};

TEST_F(AcModelTest, BetaMatchesDefinition) {
  EXPECT_DOUBLE_EQ(ac_beta(1.0), 0.0);
  EXPECT_NEAR(ac_beta(0.5), std::sqrt(0.25), 1e-12);
  EXPECT_NEAR(ac_beta(0.0), std::sqrt(0.5), 1e-12);
  EXPECT_THROW(ac_beta(1.5), std::invalid_argument);
  EXPECT_THROW(ac_beta(-0.1), std::invalid_argument);
}

TEST_F(AcModelTest, SnFirstCycleMatchesEq9) {
  const double c = 0.4;
  EXPECT_NEAR(sn_exact(c, 1), std::pow(c, 0.25) / (1.0 + ac_beta(c)), 1e-12);
  EXPECT_NEAR(sn_closed(c, 1.0), sn_exact(c, 1), 1e-12);
}

TEST_F(AcModelTest, SnIsIncreasingInCycleCount) {
  double prev = sn_exact(0.5, 1);
  for (std::int64_t n : {2, 5, 10, 100, 1000}) {
    const double s = sn_exact(0.5, n);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST_F(AcModelTest, SnIsIncreasingInDuty) {
  for (std::int64_t n : {10, 1000}) {
    double prev = 0.0;
    for (double c : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      const double s = sn_exact(c, n);
      EXPECT_GT(s, prev) << "c=" << c << " n=" << n;
      prev = s;
    }
  }
}

TEST_F(AcModelTest, ClosedFormTracksExactRecursion) {
  // The hybrid form is bit-exact below 1024 cycles and within 0.2% beyond.
  for (double c : {0.1, 0.5, 0.9}) {
    for (std::int64_t n : {10, 100, 1000, 100000}) {
      const double exact = sn_exact(c, n);
      const double closed = sn_closed(c, static_cast<double>(n));
      const double tol = n <= 1024 ? 1e-12 : 2e-3;
      EXPECT_NEAR(closed / exact, 1.0, tol) << "c=" << c << " n=" << n;
    }
  }
}

TEST_F(AcModelTest, DcAsymptoteIsQuarterPowerOfN) {
  // With c = 1 the recursion must reproduce S_n ~ n^(1/4).
  const double s = sn_exact(1.0, 100000);
  EXPECT_NEAR(s / std::pow(100000.0, 0.25), 1.0, 1e-2);
}

TEST_F(AcModelTest, ZeroDutyGivesZeroShift) {
  EXPECT_EQ(ac_delta_vth(p_, 400.0, {0.0, 10.0}, 1e8, kVgs, kVth), 0.0);
}

TEST_F(AcModelTest, FullDutyEqualsDcLaw) {
  const double ac = ac_delta_vth(p_, 400.0, {1.0, 10.0}, 1e8, kVgs, kVth);
  const double dc = dc_delta_vth(p_, 400.0, 1e8, kVgs, kVth);
  EXPECT_NEAR(ac, dc, 1e-12);
}

TEST_F(AcModelTest, AcIsAlwaysBelowDc) {
  // Fig. 1's message: recovery makes AC degradation milder than DC.
  const double dc = dc_delta_vth(p_, 400.0, 3e8, kVgs, kVth);
  for (double c : {0.1, 0.5, 0.9}) {
    EXPECT_LT(ac_delta_vth(p_, 400.0, {c, 100.0}, 3e8, kVgs, kVth), dc);
  }
}

TEST_F(AcModelTest, PeriodInsensitivityForLargeN) {
  // The product S_n tau^(1/4) converges; chopping the same total time into
  // different cycle periods must give nearly identical shifts.
  const double a = ac_delta_vth(p_, 400.0, {0.5, 10.0}, 3e8, kVgs, kVth);
  const double b = ac_delta_vth(p_, 400.0, {0.5, 10000.0}, 3e8, kVgs, kVth);
  EXPECT_NEAR(a / b, 1.0, 5e-3);
}

TEST_F(AcModelTest, ExactAndClosedAgreeOnDeltaVth) {
  const AcStress s{0.5, 1000.0};
  const double closed =
      ac_delta_vth(p_, 400.0, s, 1e7, kVgs, kVth, AcEvalMethod::ClosedForm);
  const double exact =
      ac_delta_vth(p_, 400.0, s, 1e7, kVgs, kVth, AcEvalMethod::ExactRecursion);
  EXPECT_NEAR(closed / exact, 1.0, 2e-3);
}

TEST_F(AcModelTest, RejectsBadArguments) {
  EXPECT_THROW(ac_delta_vth(p_, 400.0, {0.5, 0.0}, 1e6, kVgs, kVth),
               std::invalid_argument);
  EXPECT_THROW(ac_delta_vth(p_, 400.0, {0.5, 1.0}, -1.0, kVgs, kVth),
               std::invalid_argument);
  EXPECT_THROW(sn_exact(0.5, 0), std::invalid_argument);
  EXPECT_THROW(sn_closed(0.5, 0.5), std::invalid_argument);
}

TEST_F(AcModelTest, CycleSimulatorTracksAnalyticalModelShape) {
  // The literal stress/recovery alternation is an independent reference:
  // both models must agree within a modest band over a long run.
  const AcStress s{0.5, 1000.0};
  const double analytical =
      ac_delta_vth(p_, 400.0, s, 1e6, kVgs, kVth, AcEvalMethod::ClosedForm);
  const double simulated = simulate_cycles(p_, 400.0, s, 1000, kVgs, kVth);
  EXPECT_GT(simulated, 0.3 * analytical);
  EXPECT_LT(simulated, 3.0 * analytical);
}

TEST_F(AcModelTest, CycleSimulatorMonotoneInDuty) {
  const double lo = simulate_cycles(p_, 400.0, {0.2, 100.0}, 500, kVgs, kVth);
  const double hi = simulate_cycles(p_, 400.0, {0.8, 100.0}, 500, kVgs, kVth);
  EXPECT_LT(lo, hi);
}

TEST_F(AcModelTest, SeriesIsMonotoneAndGeometricallySpaced) {
  const auto series =
      ac_delta_vth_series(p_, 400.0, {0.5, 1000.0}, 1e4, 3e8, 20, kVgs, kVth);
  ASSERT_EQ(series.size(), 20u);
  EXPECT_NEAR(series.front().first, 1e4, 1.0);
  EXPECT_NEAR(series.back().first, 3e8, 3e4);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].second, series[i - 1].second);
    EXPECT_GT(series[i].first, series[i - 1].first);
  }
}

// Property sweep: dVth(t) follows the t^(1/4) envelope for any duty: the
// ratio dVth(100 t) / dVth(t) must approach 100^(1/4) ~ 3.16 for large t.
class QuarterPowerSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuarterPowerSweep, LongRunQuarterPowerScaling) {
  const RdParams p;
  const double c = GetParam();
  const AcStress s{c, 100.0};
  const double d1 = ac_delta_vth(p, 400.0, s, 1e6, 1.0, 0.22);
  const double d2 = ac_delta_vth(p, 400.0, s, 1e8, 1.0, 0.22);
  EXPECT_NEAR(d2 / d1, std::pow(100.0, 0.25), 0.05) << "duty=" << c;
}

INSTANTIATE_TEST_SUITE_P(Duties, QuarterPowerSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8, 0.95, 1.0));

TEST_F(AcModelTest, RejectsNanDuty) {
  // A NaN duty used to run the recursion to S = NaN; it would now become a
  // key of the analyzer's duty memo.
  const double nan = std::nan("");
  EXPECT_THROW(make_sn_prefix(nan), std::invalid_argument);
  EXPECT_THROW(ac_beta(nan), std::invalid_argument);
  EXPECT_THROW(sn_closed(nan, 1e6), std::invalid_argument);
  EXPECT_THROW(sn_exact(nan, 10), std::invalid_argument);
}

}  // namespace
}  // namespace nbtisim::nbti
