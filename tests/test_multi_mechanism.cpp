// Unit tests for PBTI/HCI models (src/nbti/other_mechanisms.*) and the
// multi-mechanism circuit analysis (src/aging/multi.*).

#include "aging/multi.h"

#include <gtest/gtest.h>

#include <cmath>

#include "netlist/generators.h"
#include "tech/units.h"

namespace nbtisim {
namespace {

class MechanismTest : public ::testing::Test {
 protected:
  nbti::RdParams rd_;
  nbti::ModeSchedule sched_ =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
};

TEST_F(MechanismTest, PbtiIsAFractionOfNbti) {
  const nbti::PbtiParams pbti{.ratio = 0.35};
  const double p = nbti::pbti_delta_vth(rd_, pbti, 0.5, true, sched_,
                                        kTenYears);
  // The equivalent NBTI device (stress prob 0.5, stressed standby).
  const nbti::DeviceAging model(rd_);
  const nbti::DeviceStress nbti_stress{0.5, nbti::StandbyMode::Stressed, 1.0,
                                       0.22};
  const double n = model.delta_vth(nbti_stress, sched_, kTenYears);
  EXPECT_NEAR(p / n, 0.35, 1e-9);
}

TEST_F(MechanismTest, PbtiStressPolarityIsInverted) {
  const nbti::PbtiParams pbti;
  // Gate mostly HIGH ages the NMOS more than gate mostly LOW.
  const double high = nbti::pbti_delta_vth(rd_, pbti, 0.9, true, sched_, 3e8);
  const double low = nbti::pbti_delta_vth(rd_, pbti, 0.1, false, sched_, 3e8);
  EXPECT_GT(high, low);
}

TEST_F(MechanismTest, PbtiRejectsNegativeRatio) {
  EXPECT_THROW(nbti::pbti_delta_vth(rd_, {.ratio = -1.0}, 0.5, true, sched_,
                                    1e6),
               std::invalid_argument);
}

TEST_F(MechanismTest, HciGrowsWithActivityAndTime) {
  const nbti::HciParams hci;
  const double lo = nbti::hci_delta_vth(hci, 0.1, 1e9, sched_, kTenYears);
  const double hi = nbti::hci_delta_vth(hci, 0.4, 1e9, sched_, kTenYears);
  EXPECT_GT(hi, lo);
  const double later = nbti::hci_delta_vth(hci, 0.1, 1e9, sched_, 4 * kTenYears);
  EXPECT_NEAR(later / lo, 2.0, 1e-9);  // sqrt law
}

TEST_F(MechanismTest, HciMagnitudeBand) {
  // Calibration: ~10 mV-class at 10 years, 1 GHz, typical activity.
  const nbti::HciParams hci;
  const double d = nbti::hci_delta_vth(hci, 0.2, 1e9, sched_, kTenYears);
  EXPECT_GT(to_mV(d), 2.0);
  EXPECT_LT(to_mV(d), 30.0);
}

TEST_F(MechanismTest, HciZeroWithoutSwitching) {
  const nbti::HciParams hci;
  EXPECT_EQ(nbti::hci_delta_vth(hci, 0.0, 1e9, sched_, kTenYears), 0.0);
  EXPECT_EQ(nbti::hci_delta_vth(hci, 0.2, 0.0, sched_, kTenYears), 0.0);
  EXPECT_EQ(nbti::hci_delta_vth(hci, 0.2, 1e9, sched_, 0.0), 0.0);
}

TEST_F(MechanismTest, HciRejectsBadInput) {
  const nbti::HciParams hci;
  EXPECT_THROW(nbti::hci_delta_vth(hci, 1.5, 1e9, sched_, 1e6),
               std::invalid_argument);
  EXPECT_THROW(nbti::hci_delta_vth(hci, 0.5, 1e9, sched_, -1.0),
               std::invalid_argument);
}

TEST_F(MechanismTest, HciColderIsWorse) {
  nbti::HciParams hci;
  const nbti::ModeSchedule cold =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 350.0, 330.0);
  const nbti::ModeSchedule hot =
      nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  EXPECT_GT(nbti::hci_delta_vth(hci, 0.2, 1e9, cold, kTenYears),
            nbti::hci_delta_vth(hci, 0.2, 1e9, hot, kTenYears));
}

TEST_F(MechanismTest, TddbCalibratedNearTwentyFiveYearsAtNominal) {
  const nbti::TddbParams tddb;
  const double years = nbti::tddb_mttf(tddb, 1.0, 400.0) / kSecondsPerYear;
  EXPECT_GT(years, 15.0);
  EXPECT_LT(years, 40.0);
}

TEST_F(MechanismTest, TddbAcceleratesWithVoltageAndTemperature) {
  const nbti::TddbParams tddb;
  EXPECT_LT(nbti::tddb_mttf(tddb, 1.2, 400.0),
            nbti::tddb_mttf(tddb, 1.0, 400.0));
  EXPECT_LT(nbti::tddb_mttf(tddb, 1.0, 430.0),
            nbti::tddb_mttf(tddb, 1.0, 400.0));
}

TEST_F(MechanismTest, TddbRejectsBadInput) {
  const nbti::TddbParams tddb;
  EXPECT_THROW(nbti::tddb_mttf(tddb, 0.0, 400.0), std::invalid_argument);
  EXPECT_THROW(nbti::tddb_mttf(tddb, 1.0, -10.0), std::invalid_argument);
  EXPECT_THROW(nbti::tddb_mttf({.scale_s = 0.0}, 1.0, 400.0),
               std::invalid_argument);
}

TEST_F(MechanismTest, EmFollowsBlacksEquation) {
  const nbti::EmParams em;
  // J^-n: doubling the current with n = 2 quarters the MTTF.
  const double base = nbti::em_mttf(em, em.ref_current_a, 400.0);
  const double doubled = nbti::em_mttf(em, 2.0 * em.ref_current_a, 400.0);
  EXPECT_NEAR(base / doubled, 4.0, 1e-9);
  // exp(Ea/kT): the exact Arrhenius ratio between two temperatures.
  const double hot = nbti::em_mttf(em, em.ref_current_a, 430.0);
  const double expected =
      std::exp(em.ea / (kBoltzmannEv * 400.0) - em.ea / (kBoltzmannEv * 430.0));
  EXPECT_NEAR(base / hot, expected, 1e-9 * expected);
}

TEST_F(MechanismTest, EmCalibratedNearTwentyYearsAtReference) {
  const nbti::EmParams em;
  const double years =
      nbti::em_mttf(em, em.ref_current_a, 400.0) / kSecondsPerYear;
  EXPECT_GT(years, 10.0);
  EXPECT_LT(years, 40.0);
}

TEST_F(MechanismTest, EmZeroCurrentNeverFails) {
  const nbti::EmParams em;
  EXPECT_TRUE(std::isinf(nbti::em_mttf(em, 0.0, 400.0)));
}

TEST_F(MechanismTest, EmRejectsBadInput) {
  const nbti::EmParams em;
  EXPECT_THROW(nbti::em_mttf(em, -1e-6, 400.0), std::invalid_argument);
  EXPECT_THROW(nbti::em_mttf(em, 1e-6, 0.0), std::invalid_argument);
  EXPECT_THROW(nbti::em_mttf({.ref_current_a = 0.0}, 1e-6, 400.0),
               std::invalid_argument);
}

class MultiMechanismTest : public ::testing::Test {
 protected:
  MultiMechanismTest() : c432_(netlist::iscas85_like("c432")) {
    cond_.schedule = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
    cond_.sp_vectors = 512;
    analyzer_.emplace(c432_, lib_, cond_);
  }

  tech::Library lib_;
  netlist::Netlist c432_;
  aging::AgingConditions cond_;
  std::optional<aging::AgingAnalyzer> analyzer_;
};

TEST_F(MultiMechanismTest, AllMechanismsWorseThanNbtiAlone) {
  const aging::MultiAgingReport rep = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed());
  EXPECT_GT(rep.aged_delay, rep.nbti_only_delay);
  EXPECT_GT(rep.nbti_only_delay, rep.fresh_delay);
  EXPECT_GT(rep.percent(), rep.nbti_only_percent());
}

TEST_F(MultiMechanismTest, DisablingMechanismsRemovesTheirShift) {
  const aging::MultiAgingReport none = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.enable_pbti = false, .enable_hci = false});
  for (double d : none.nmos_dvth) EXPECT_EQ(d, 0.0);
  EXPECT_NEAR(none.aged_delay, none.nbti_only_delay, 1e-18);
}

TEST_F(MultiMechanismTest, PbtiPolarityInvertsStandbyPreference) {
  // All-stressed (nets at 0) is NBTI's worst case but PBTI's best; the
  // PBTI-only NMOS shift must be larger under the all-relaxed policy.
  const aging::MultiAgingParams pbti_only{.enable_pbti = true,
                                          .enable_hci = false};
  const aging::MultiAgingReport worst_nbti = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(), pbti_only);
  const aging::MultiAgingReport worst_pbti = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_relaxed(), pbti_only);
  double sum_stressed = 0.0, sum_relaxed = 0.0;
  for (double d : worst_nbti.nmos_dvth) sum_stressed += d;
  for (double d : worst_pbti.nmos_dvth) sum_relaxed += d;
  EXPECT_GT(sum_relaxed, sum_stressed);
}

TEST_F(MultiMechanismTest, NmosShiftsInPhysicalBand) {
  const aging::MultiAgingReport rep = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed());
  for (double d : rep.nmos_dvth) {
    EXPECT_GE(d, 0.0);
    EXPECT_LT(to_mV(d), 60.0);
  }
}

TEST_F(MultiMechanismTest, VectorPolicySupported) {
  std::vector<bool> v(c432_.num_inputs(), true);
  const aging::MultiAgingReport rep = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::from_vector(v));
  EXPECT_GT(rep.percent(), 0.0);
}

TEST_F(MultiMechanismTest, EmptyRotationIsRejectedNotNaN) {
  // Regression: a Rotating policy with no vectors used to divide by the
  // rotation size and poison every standby_stress_fraction with NaN. The
  // rotating() factory already throws, so build the policy by hand.
  aging::StandbyPolicy p;
  p.kind = aging::StandbyPolicy::Kind::Rotating;
  ASSERT_TRUE(p.rotation.empty());
  EXPECT_THROW(aging::build_pbti_stress(*analyzer_, p), std::invalid_argument);
  EXPECT_THROW(aging::analyze_multi_mechanism(*analyzer_, p),
               std::invalid_argument);
}

TEST_F(MultiMechanismTest, RejectsNegativePbtiRatio) {
  // Regression: a negative ratio used to be floored silently to a zero PBTI
  // shift instead of being rejected like nbti::pbti_delta_vth does.
  aging::MultiAgingParams params;
  params.pbti.ratio = -0.35;
  EXPECT_THROW(aging::analyze_multi_mechanism(
                   *analyzer_, aging::StandbyPolicy::all_stressed(), params),
               std::invalid_argument);
}

TEST_F(MultiMechanismTest, PbtiStressSetMatchesReportShift) {
  // The exported stress set, evaluated through DeviceAging directly, must
  // reproduce the PBTI-only NMOS shifts of analyze_multi_mechanism bit for
  // bit under every standby policy kind the kernel path sees.
  std::vector<bool> alternating(c432_.num_inputs());
  for (std::size_t i = 0; i < alternating.size(); ++i) {
    alternating[i] = i % 2 == 0;
  }
  const aging::MultiAgingParams params{.enable_pbti = true,
                                       .enable_hci = false};
  const nbti::DeviceAging model(analyzer_->conditions().rd);
  const double horizon = analyzer_->conditions().total_time;
  for (const aging::StandbyPolicy& policy :
       {aging::StandbyPolicy::from_vector(alternating),
        aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::all_relaxed()}) {
    SCOPED_TRACE(::testing::Message()
                 << "policy kind " << static_cast<int>(policy.kind));
    const aging::MultiAgingReport rep =
        aging::analyze_multi_mechanism(*analyzer_, policy, params);
    const aging::PbtiStressSet set =
        aging::build_pbti_stress(*analyzer_, policy);
    ASSERT_EQ(set.gate_begin.size(), c432_.num_gates() + 1);
    for (std::size_t g = 0; g < c432_.num_gates(); ++g) {
      double worst = 0.0;
      for (std::size_t d = set.gate_begin[g]; d < set.gate_begin[g + 1];
           ++d) {
        worst = std::max(worst, params.pbti.ratio *
                                    model.delta_vth(set.devices[d],
                                                    cond_.schedule, horizon));
      }
      EXPECT_EQ(rep.nmos_dvth[g], worst) << "gate " << g;
    }
  }
}

TEST_F(MultiMechanismTest, HigherClockAgesFaster) {
  const aging::MultiAgingReport slow = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.enable_pbti = false, .clock_hz = 1e8});
  const aging::MultiAgingReport fast = aging::analyze_multi_mechanism(
      *analyzer_, aging::StandbyPolicy::all_stressed(),
      {.enable_pbti = false, .clock_hz = 4e9});
  EXPECT_GT(fast.aged_delay, slow.aged_delay);
}

}  // namespace
}  // namespace nbtisim
