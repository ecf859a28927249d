/// \file multi.h
/// \brief Multi-mechanism circuit aging: NBTI (PMOS) + PBTI + HCI (NMOS),
///        combined per timing arc by the slew-aware STA.
///
/// NBTI slows pull-up arcs; PBTI and HCI shift NMOS thresholds and slow
/// pull-down arcs. Because rising and falling arrivals interleave along a
/// path, the mechanisms do NOT simply add at the circuit level — the
/// slew-aware engine resolves the interaction arc by arc.
#pragma once

#include "aging/aging.h"
#include "nbti/other_mechanisms.h"

namespace nbtisim::aging {

/// Which mechanisms to include and their technology parameters.
struct MultiAgingParams {
  bool enable_pbti = true;
  bool enable_hci = true;
  nbti::PbtiParams pbti{};
  nbti::HciParams hci{};
  double clock_hz = 1.0e9;  ///< active-mode switching rate for HCI
};

/// Multi-mechanism degradation report.
struct MultiAgingReport {
  double fresh_delay = 0.0;      ///< [s]
  double aged_delay = 0.0;       ///< all mechanisms [s]
  double nbti_only_delay = 0.0;  ///< aged with NBTI alone [s]
  std::vector<double> pmos_dvth; ///< per-gate NBTI shift [V]
  std::vector<double> nmos_dvth; ///< per-gate PBTI+HCI shift [V]

  double percent() const {
    return fresh_delay > 0.0
               ? 100.0 * (aged_delay - fresh_delay) / fresh_delay
               : 0.0;
  }
  double nbti_only_percent() const {
    return fresh_delay > 0.0
               ? 100.0 * (nbti_only_delay - fresh_delay) / fresh_delay
               : 0.0;
  }
};

/// Flattened per-gate NMOS PBTI stress descriptors: the standby-simulation +
/// signal-probability phase of the multi-mechanism pipeline, built once per
/// policy and reusable across horizons — the failure suite evaluates the
/// same devices over a whole dVth(t) grid.
struct PbtiStressSet {
  std::vector<nbti::DeviceStress> devices;  ///< flattened per-gate runs
  std::vector<int> gate_begin;              ///< size num_gates + 1
};

/// Builds the PBTI device stress descriptors for every gate of \p analyzer's
/// circuit under \p policy.  The worst per-gate PBTI shift at horizon t is
/// pbti.ratio * max over the gate's devices of DeviceAging::delta_vth(d, t).
/// \throws std::invalid_argument for a Rotating policy with an empty rotation
PbtiStressSet build_pbti_stress(const AgingAnalyzer& analyzer,
                                const StandbyPolicy& policy);

/// Packs \p set into the SoA kernel under \p analyzer's RD model and mode
/// schedule, with contexts from AgingAnalyzer::stress_contexts (so the
/// analyzer's duty memo serves the NMOS devices too).  worst_per_gate over set.gate_begin then yields the unscaled
/// worst PBTI shift per gate, bitwise equal to the max of
/// DeviceAging::delta_vth over the gate's devices; scaling that maximum by a
/// non-negative pbti.ratio equals the max of the scaled shifts bit for bit
/// (rounded multiplication by a non-negative constant is monotone, and
/// every dVth is >= 0).
nbti::RdKernel build_pbti_kernel(const AgingAnalyzer& analyzer,
                                 const PbtiStressSet& set);

/// Runs the combined analysis on \p analyzer's circuit.
///
/// Per gate, the NMOS shift is the worst over the cell's stage inputs of
/// PBTI (duty = signal probability of 1; standby state from the policy)
/// plus the HCI contribution of the gate's switching activity.
/// \throws std::invalid_argument for a Rotating policy with an empty rotation
///         or a negative pbti.ratio
MultiAgingReport analyze_multi_mechanism(const AgingAnalyzer& analyzer,
                                         const StandbyPolicy& policy,
                                         const MultiAgingParams& params = {},
                                         std::optional<double> total_time = {});

}  // namespace nbtisim::aging
