/// \file schedule.h
/// \brief Active/standby mode schedules and the temperature-equivalent-time
///        transform — the paper's core contribution (Section 3.2, eqs. 17-19).
///
/// A circuit alternates between an *active* mode at T_active and a *standby*
/// mode at T_standby; the paper's RAS (Ratio of Active to Standby time)
/// parameterizes the split.  Because the temperature dependence of trap
/// generation sits (almost) entirely in the hydrogen diffusion coefficient,
/// stress applied for t seconds at T_standby is equivalent to stress for
/// t * D(T_standby)/D(T_active) seconds at T_active (triangle diffusion
/// profile argument, Section 3.2).  This converts one active+standby mode
/// period into a single *equivalent* stress/recovery cycle at T_active:
///
///   t_eq_stress  = c * t_active + [standby stressed] * t_standby * D_s/D_a   (17)
///   t_eq_recover = (1-c) * t_active + [standby relaxed] * t_standby          (")
///   c_eq  = t_eq_stress / (t_eq_stress + t_eq_recover)                       (18)
///   tau_eq = t_eq_stress + t_eq_recover                                      (19)
///
/// Recovery time is *not* diffusion-scaled by default: the paper observes
/// that "the temperature has negligible effect on [the] NBTI relaxation
/// phase" (Section 4.3.3).  A flag lets ablations scale it anyway.
#pragma once

#include "nbti/rd_model.h"

namespace nbtisim::nbti {

/// Steady-state operating-mode schedule (one mode period).
struct ModeSchedule {
  double t_active = 1.0;      ///< active time per mode period [s]
  double t_standby = 0.0;     ///< standby time per mode period [s]
  double temp_active = 400.0; ///< steady-state active temperature [K]
  double temp_standby = 330.0;///< steady-state standby temperature [K]

  double period() const { return t_active + t_standby; }

  /// Builds a schedule from the paper's RAS notation "a:s" (e.g. 1:9).
  /// \param period_s total mode period [s]
  /// \throws std::invalid_argument for non-finite or negative parts (or
  ///         both zero), a non-finite or non-positive period, or a
  ///         non-finite or non-positive temperature
  static ModeSchedule from_ras(double active_parts, double standby_parts,
                               double period_s, double temp_active_k,
                               double temp_standby_k);
};

/// Standby-mode condition of a PMOS device.
enum class StandbyMode : unsigned char {
  Stressed,  ///< gate signal 0 in standby (Vgs = -Vdd): continues to age
  Relaxed,   ///< gate signal 1 in standby (Vgs ~= 0): recovers
};

/// The stress profile of one PMOS device across the mode schedule.
struct DeviceStress {
  double active_stress_prob = 0.5;  ///< fraction of active time with gate = 0
  StandbyMode standby = StandbyMode::Stressed;
  double vgs = 1.0;   ///< stress gate bias magnitude [V]
  double vth0 = 0.22; ///< initial threshold magnitude [V]
  /// Fractional standby stress: when >= 0, overrides `standby` with the
  /// fraction of standby time the device spends stressed. This models
  /// *alternating* input vector control (Abella et al. [23]): rotating K
  /// standby vectors leaves each PMOS stressed in only a fraction of the
  /// standby periods.
  double standby_stress_fraction = -1.0;

  /// Effective standby stress fraction in [0, 1].
  double standby_fraction() const {
    if (standby_stress_fraction >= 0.0) return standby_stress_fraction;
    return standby == StandbyMode::Stressed ? 1.0 : 0.0;
  }
};

/// One temperature-equivalent stress/recovery cycle (all at T_active).
struct EquivalentCycle {
  double stress_time = 0.0;    ///< [s]
  double recovery_time = 0.0;  ///< [s]

  double period() const { return stress_time + recovery_time; }
  double duty() const {
    const double p = period();
    return p > 0.0 ? stress_time / p : 0.0;
  }
};

/// Applies the equivalent-time transform (eqs. 17-19) to one mode period.
///
/// \param scale_recovery_with_temp if true, relaxation time at T_standby is
///        also scaled by D_s/D_a (ablation of the paper's assumption).
/// \throws std::invalid_argument for negative times / probabilities outside [0,1]
EquivalentCycle equivalent_cycle(const RdParams& p, const DeviceStress& stress,
                                 const ModeSchedule& schedule,
                                 bool scale_recovery_with_temp = false);

}  // namespace nbtisim::nbti
