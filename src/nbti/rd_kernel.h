/// \file rd_kernel.h
/// \brief Structure-of-arrays evaluation of the R-D degradation model across
///        many devices at once — bit-identical to per-device
///        DeviceAging::delta_vth calls.
///
/// This is the one production ΔVth evaluator for whole circuits:
/// AgingAnalyzer::gate_dvth (and everything built on it) and the PBTI
/// sweeps of the failure and multi-mechanism suites all go through it;
/// there is no scalar fallback to select.  The per-device loop is the test
/// oracle testsupport::reference_gate_dvth.
///
/// DeviceAging::delta_vth(ctx, t) walks one StressContext at a time: an
/// out-of-line call per device, scattered ~100-byte AoS loads, and a long
/// dependent chain of two divisions and two square roots per evaluation.
/// Sweeps that evaluate every device of a circuit per horizon (degradation
/// series, crossing-time scans) pay that per-call overhead tens of thousands
/// of times.
///
/// RdKernel packs the horizon-independent context fields into contiguous
/// per-field arrays and evaluates the telescoped closed-form tail
///     n   = max(1, (t / schedule_period) * eq_period / ac.period)
///     S^4 = S_1024^4 + (n - 1024) * 4 * step
///     dVth = kv * quarter_root(S^4) * period^(1/4)
/// in a branch-free inner loop the compiler auto-vectorizes (the TU is built
/// with -fno-math-errno so sqrt maps to the packed instruction, and
/// -ffp-contract=off so no FMA contraction can round differently from the
/// scalar TU; no intrinsics).  Duty == 1 (DC stress) devices get their own
/// compacted pass — kv * quarter_root(total_equivalent) with the kv_at
/// prefactor hoisted to construction time — since the scalar path
/// short-circuits them before the eval-method switch.  Remaining lanes the
/// formulas do not cover — horizons inside the exact-recursion head
/// (n <= kSnExactCycles), duty 0, inactive devices, ExactRecursion mode —
/// are finished by a scalar fixup pass that calls DeviceAging::delta_vth on
/// the stored context, so every output is bitwise equal to the scalar path
/// by construction.  The differential suite (tests/test_differential.cpp)
/// enforces exact equality, both per device and per gate against the oracle.
#pragma once

#include <span>
#include <vector>

#include "nbti/device_aging.h"

namespace nbtisim::nbti {

/// SoA batch evaluator over a fixed set of stress contexts.  Immutable after
/// construction; safe to query concurrently.
class RdKernel {
 public:
  RdKernel() = default;

  /// Packs \p contexts (as produced by DeviceAging::make_context under one
  /// model) into SoA form.  The model is copied; contexts are kept for the
  /// scalar fixup lanes — callers move their vector in, so the kernel holds
  /// the only copy.
  RdKernel(const DeviceAging& model,
           std::vector<DeviceAging::StressContext> contexts);

  int num_devices() const { return n_; }
  const DeviceAging::StressContext& context(int i) const {
    return contexts_[i];
  }

  /// out[i - begin] = model.delta_vth(context(i), total_time) for i in
  /// [begin, end), bit-identical to the scalar calls.
  /// \throws std::invalid_argument for negative total_time
  void delta_vth(double total_time, int begin, int end,
                 std::span<double> out) const;

  /// All devices at once; out.size() must equal num_devices().
  void delta_vth(double total_time, std::span<double> out) const;

  /// Worst-device reduction per gate: for every gate g in [gate_lo, gate_hi)
  /// sets dvth[g] = max over devices [gate_begin[g], gate_begin[g + 1]) (0.0
  /// for empty gates), in the scalar reduction's slot order.  \p gate_begin
  /// is the CSR offset array (size num_gates + 1, last entry num_devices());
  /// \p dvth spans all gates.  \p dev_out and \p scratch are device-indexed
  /// caller buffers (at least num_devices() slots each; only the range's
  /// slice is touched) so hot sweeps pay no per-call allocation — parallel
  /// callers hand disjoint gate ranges slices of shared buffers, and reused
  /// thread-local buffers may be oversized.
  void worst_per_gate(double total_time, std::span<const int> gate_begin,
                      int gate_lo, int gate_hi, std::span<double> dvth,
                      std::span<double> dev_out,
                      std::span<double> scratch) const;

 private:
  /// The SIMD lane + fixup pass over [begin, end); out and lane_n point at
  /// the slot for device `begin` and hold end - begin slots.
  void eval(double total_time, int begin, int end, double* out,
            double* lane_n) const;

  DeviceAging model_;
  std::vector<DeviceAging::StressContext> contexts_;
  int n_ = 0;
  // One array per context field the vector lane reads.  Lanes the formula
  // does not apply to carry benign fill values (eq_period 0) that force the
  // n <= kSnExactCycles fixup test to hand them to the scalar path.
  std::vector<double> sched_period_;
  std::vector<double> eq_period_;
  std::vector<double> ac_period_;
  std::vector<double> s4_base_;  ///< prefix.s^4, the scalar tail's rounding
  std::vector<double> step4_;    ///< 4 * prefix.step (exact scaling)
  std::vector<double> kv_;
  std::vector<double> period_pow_;
  // Compacted duty == 1 (DC stress) lanes: the scalar path short-circuits
  // them to kv_at(...) * quarter_root(total_equivalent) for either eval
  // method, and kv_at of the context's inputs is bitwise the precomputed
  // ctx.kv — so a dedicated pass over these slots replaces a per-device
  // kv_at recomputation (exp-heavy) with one multiply and two sqrts.
  // Sorted by device slot for range lookup.
  std::vector<int> dc_slot_;
  std::vector<double> dc_sched_;
  std::vector<double> dc_eq_;
  std::vector<double> dc_kv_;
};

}  // namespace nbtisim::nbti
