/// \file device_aging.h
/// \brief Top-level temperature-aware NBTI evaluation for one PMOS device.
///
/// Combines the three model layers:
///   R-D prefactor (rd_model)  x  AC-stress recursion (ac_model)
///   x  equivalent-time transform (schedule)
/// into the quantity the circuit flow consumes: dVth(total_time) for a PMOS
/// with a given stress profile under a given active/standby schedule.
#pragma once

#include <utility>
#include <vector>

#include "nbti/ac_model.h"
#include "nbti/schedule.h"

namespace nbtisim::nbti {

/// Temperature-aware NBTI evaluator (paper Section 3).
///
/// Stateless facade over the model layers; cheap to copy.  The default
/// configuration matches the paper's setup: T_active = 400 K,
/// T_standby = 330 K, Vdd = 1.0 V, |Vth0| = 220 mV, horizon 3e8 s.
class DeviceAging {
 public:
  explicit DeviceAging(RdParams params = {},
                       AcEvalMethod method = AcEvalMethod::ClosedForm,
                       bool scale_recovery_with_temp = false)
      : params_(params), method_(method),
        scale_recovery_(scale_recovery_with_temp) {}

  const RdParams& params() const { return params_; }
  AcEvalMethod method() const { return method_; }

  /// dVth of a device with stress profile \p stress after \p total_time
  /// seconds of the repeating mode schedule \p schedule [V].
  double delta_vth(const DeviceStress& stress, const ModeSchedule& schedule,
                   double total_time) const;

  /// Horizon-independent evaluation state for one (stress, schedule) pair:
  /// the equivalent cycle, the K_v prefactor, and (when a memo supplies
  /// it) the S_n recursion prefix.  Build once with make_context(), then
  /// evaluate many horizons.  delta_vth(ctx, t) is bit-identical to
  /// delta_vth(stress, schedule, t) for every t.
  struct StressContext {
    bool always_zero = false;   ///< no equivalent stress: dVth(t) == 0
    double schedule_period = 1.0;  ///< wall-clock mode period [s]
    double eq_period = 0.0;        ///< equivalent cycle period [s]
    double temp_active = 400.0;    ///< evaluation temperature [K]
    AcStress ac;                   ///< equivalent duty / period pattern
    /// make_sn_prefix(ac.duty), owned by the caller's memo (it must
    /// outlive the context): evaluations are then O(1) at n >=
    /// kSnExactCycles and resume from a checkpoint below it, bitwise equal
    /// to the oracle.  Null (as make_context leaves it): delta_vth runs the
    /// recursion of sn_closed(ac.duty, n) from cycle 1 at every evaluation.
    /// AgingAnalyzer points it into its duty memo.
    const SnPrefix* prefix = nullptr;
    double vgs = 1.0;              ///< stress gate bias magnitude [V]
    double vth0 = 0.22;            ///< initial threshold magnitude [V]
    double kv = 0.0;               ///< kv_at(params, temp_active, vgs, vth0)
    double period_pow = 0.0;       ///< ac.period^(1/4)
  };

  /// The oracle context of \p stress under \p schedule: no S_n prefix, so
  /// each evaluation pays the full O(kSnExactCycles) recursion.
  StressContext make_context(const DeviceStress& stress,
                             const ModeSchedule& schedule) const;

  /// dVth after \p total_time seconds via a precomputed context [V].
  double delta_vth(const StressContext& ctx, double total_time) const;

  /// As delta_vth, but evaluated under the *worst-case temperature
  /// assumption* the paper criticizes: standby time is treated as if it were
  /// spent at T_active.  Used by the pessimism ablation.
  double delta_vth_worst_case_temp(const DeviceStress& stress,
                                   const ModeSchedule& schedule,
                                   double total_time) const;

  /// Geometrically spaced (time, dVth) series for Fig. 3/4-style plots.
  std::vector<std::pair<double, double>> delta_vth_series(
      const DeviceStress& stress, const ModeSchedule& schedule, double t_min,
      double t_max, int n_points) const;

 private:
  double eval(const DeviceStress& stress, const ModeSchedule& schedule,
              double total_time, bool worst_case_temp) const;

  RdParams params_;
  AcEvalMethod method_;
  bool scale_recovery_;
};

}  // namespace nbtisim::nbti
