#include "aging/aging.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/pool.h"

namespace nbtisim::aging {

namespace {

// Bound on cached per-policy descriptor sets; oldest entries are evicted
// first. Sweeps that visit many distinct policies (IVC candidate search)
// stay within this working set because they revisit each candidate rarely.
constexpr std::size_t kMaxCachedPolicies = 16;

// Gates handed to one RdKernel sweep per work-pool index: large enough that
// the packed inner loop amortizes its setup, small enough to keep the
// parallel decomposition fine-grained.  Chunk boundaries do not affect
// results (each gate writes only its own slot).
constexpr int kKernelGateChunk = 64;

// Devices handed out per work-pool index by stress_contexts: with the S_n
// prefix memoized, each context costs well under a microsecond.
constexpr int kContextGrain = 256;

std::vector<double> resolve_input_sp(const netlist::Netlist& nl,
                                     const AgingConditions& cond) {
  if (cond.input_sp.empty()) {
    return std::vector<double>(nl.num_inputs(), 0.5);
  }
  if (static_cast<int>(cond.input_sp.size()) != nl.num_inputs()) {
    throw std::invalid_argument("AgingAnalyzer: input_sp size mismatch");
  }
  return cond.input_sp;
}

// Rejects a non-finite horizon before the signal-statistics pass runs: a
// NaN or infinite total_time would otherwise reach the report as a silent
// 0% or runaway degradation.
AgingConditions checked(AgingConditions cond) {
  if (!std::isfinite(cond.total_time)) {
    throw std::invalid_argument("AgingAnalyzer: non-finite total_time");
  }
  return cond;
}

}  // namespace

StandbyPolicy StandbyPolicy::rotating(std::vector<std::vector<bool>> vectors) {
  if (vectors.empty()) {
    throw std::invalid_argument("StandbyPolicy::rotating: no vectors");
  }
  StandbyPolicy p;
  p.kind = Kind::Rotating;
  p.rotation = std::move(vectors);
  return p;
}

AgingAnalyzer::AgingAnalyzer(const netlist::Netlist& nl,
                             const tech::Library& lib, AgingConditions cond)
    : nl_(&nl), lib_(&lib), cond_(checked(std::move(cond))), sta_(nl, lib),
      stats_(sim::estimate_signal_stats(nl, resolve_input_sp(nl, cond_),
                                        cond_.sp_vectors, cond_.seed,
                                        cond_.n_threads)),
      fresh_delays_(sta_.gate_delays(cond_.sta_temperature, {},
                                     cond_.gate_vth_offsets)) {
  if (!cond_.gate_vth_offsets.empty() &&
      static_cast<int>(cond_.gate_vth_offsets.size()) != nl.num_gates()) {
    throw std::invalid_argument(
        "AgingAnalyzer: gate_vth_offsets size mismatch");
  }
  if (!cond_.gate_delay_scale.empty()) {
    if (static_cast<int>(cond_.gate_delay_scale.size()) != nl.num_gates()) {
      throw std::invalid_argument(
          "AgingAnalyzer: gate_delay_scale size mismatch");
    }
    for (int gi = 0; gi < nl.num_gates(); ++gi) {
      if (cond_.gate_delay_scale[gi] < 1.0) {
        throw std::invalid_argument(
            "AgingAnalyzer: gate delay scale below 1");
      }
      fresh_delays_[gi] *= cond_.gate_delay_scale[gi];
    }
  }
  fresh_critical_delay_ = sta_.analyze(fresh_delays_).max_delay;
}

std::shared_ptr<const AgingAnalyzer::StressDescriptors>
AgingAnalyzer::stress_descriptors(const StandbyPolicy& policy) const {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const auto& entry : stress_cache_) {
      if (entry->policy == policy) return entry;
    }
  }

  // Build phase — everything that does not depend on the evaluation
  // horizon: standby-vector simulation, signal-probability propagation
  // through each cell, and the per-PMOS stress descriptors.
  stress_builds_.fetch_add(1, std::memory_order_relaxed);
  const double vdd = lib_->params().vdd;

  // Standby net values (Vector policy: one set; Rotating: one per member).
  std::vector<std::vector<bool>> standby_values;
  if (policy.kind == StandbyPolicy::Kind::Vector) {
    if (static_cast<int>(policy.vector.size()) != nl_->num_inputs()) {
      throw std::invalid_argument("StandbyPolicy vector: PI count mismatch");
    }
    standby_values.push_back(
        sim::Simulator(*nl_).evaluate_forced(policy.vector, policy.forces));
  } else if (policy.kind == StandbyPolicy::Kind::Rotating) {
    if (policy.rotation.empty()) {
      throw std::invalid_argument("StandbyPolicy rotating: no vectors");
    }
    const sim::Simulator simulator(*nl_);
    for (const std::vector<bool>& v : policy.rotation) {
      if (static_cast<int>(v.size()) != nl_->num_inputs()) {
        throw std::invalid_argument("StandbyPolicy rotating: PI count mismatch");
      }
      standby_values.push_back(simulator.evaluate_forced(v, policy.forces));
    }
  }

  auto desc = std::make_shared<StressDescriptors>();
  desc->policy = policy;
  desc->gate_begin.resize(nl_->num_gates() + 1, 0);
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const tech::Cell& cell = lib_->cell(sta_.gate_cell(gi));
    desc->gate_begin[gi + 1] =
        desc->gate_begin[gi] + static_cast<int>(cell.pmos_devices().size());
  }
  std::vector<nbti::DeviceStress> stresses(desc->gate_begin.back());

  common::parallel_for(nl_->num_gates(), cond_.n_threads, [&](int gi) {
    const netlist::Gate& g = nl_->gate(gi);
    const tech::Cell& cell = lib_->cell(sta_.gate_cell(gi));

    // Active-mode signal probabilities of the cell's internal signals.
    std::vector<double> pin_sp;
    pin_sp.reserve(g.fanins.size());
    for (netlist::NodeId in : g.fanins) pin_sp.push_back(stats_.probability[in]);
    const std::vector<double> sp = cell.signal_probabilities(pin_sp);

    // Standby-mode values of the cell's internal signals, one per standby
    // vector (empty for the bounding policies).
    std::vector<std::vector<bool>> standby_sig;
    for (const std::vector<bool>& values : standby_values) {
      std::uint32_t bits = 0;
      for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
        bits |= values[g.fanins[pin]] ? (1u << pin) : 0u;
      }
      standby_sig.push_back(cell.signal_values(bits));
    }

    int slot = desc->gate_begin[gi];
    for (const tech::PmosDevice& pm : cell.pmos_devices()) {
      nbti::DeviceStress& stress = stresses[slot];
      stress.active_stress_prob = 1.0 - sp[pm.gate_signal];
      stress.vgs = vdd;
      stress.vth0 = lib_->params().pmos.vth0 +
                    (cond_.gate_vth_offsets.empty()
                         ? 0.0
                         : cond_.gate_vth_offsets[gi]);
      switch (policy.kind) {
        case StandbyPolicy::Kind::AllStressed:
          stress.standby = nbti::StandbyMode::Stressed;
          break;
        case StandbyPolicy::Kind::AllRelaxed:
          stress.standby = nbti::StandbyMode::Relaxed;
          break;
        case StandbyPolicy::Kind::Vector:
        case StandbyPolicy::Kind::Rotating: {
          int stressed = 0;
          for (const std::vector<bool>& sig : standby_sig) {
            stressed += sig[pm.gate_signal] ? 0 : 1;
          }
          stress.standby_stress_fraction =
              static_cast<double>(stressed) / standby_sig.size();
          break;
        }
      }
      ++slot;
    }
  });
  // The stress profiles are freed before the kernel packs the contexts.
  std::vector<nbti::DeviceAging::StressContext> contexts =
      stress_contexts(std::exchange(stresses, {}));
  desc->kernel = nbti::RdKernel(nbti::DeviceAging(cond_.rd, cond_.method),
                                std::move(contexts));

  std::lock_guard<std::mutex> lock(cache_mutex_);
  // Another thread may have built the same policy concurrently; reuse its
  // entry so callers share one descriptor set.
  for (const auto& entry : stress_cache_) {
    if (entry->policy == policy) return entry;
  }
  if (stress_cache_.size() >= kMaxCachedPolicies) {
    stress_cache_.erase(stress_cache_.begin());
  }
  stress_cache_.push_back(desc);
  return desc;
}

std::vector<nbti::DeviceAging::StressContext> AgingAnalyzer::stress_contexts(
    std::span<const nbti::DeviceStress> stresses) const {
  const nbti::DeviceAging model(cond_.rd, cond_.method);
  const int n = static_cast<int>(stresses.size());
  std::vector<std::uint64_t> duty_key(n);
  std::shared_ptr<const PrefixMemo> memo;
  {
    // One build at a time finds and fills the memo's missing duties:
    // concurrent builds would otherwise each compute the duties they
    // share, at a cost that depends on how their runs overlap.
    std::lock_guard<std::mutex> build(prefix_build_mutex_);
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      memo = prefix_memo_;
    }
    // Each device's equivalent duty, flagged when the memo lacks it.  The
    // snapshot is immutable, so no lock is taken per device.
    std::vector<char> missing(n);
    common::parallel_for_grain(n, cond_.n_threads, kContextGrain, [&](int i) {
      duty_key[i] = std::bit_cast<std::uint64_t>(
          model.equivalent_duty(stresses[i], cond_.schedule));
      missing[i] = memo->contains(duty_key[i]) ? 0 : 1;
    });
    memo = add_prefixes(std::move(memo), duty_key, missing);
  }

  std::vector<nbti::DeviceAging::StressContext> contexts(n);
  common::parallel_for_grain(n, cond_.n_threads, kContextGrain, [&](int i) {
    contexts[i] = model.make_context(stresses[i], cond_.schedule,
                                     memo->at(duty_key[i]));
  });
  return contexts;
}

std::shared_ptr<const AgingAnalyzer::PrefixMemo> AgingAnalyzer::add_prefixes(
    std::shared_ptr<const PrefixMemo> snapshot,
    std::span<const std::uint64_t> duty_key,
    std::span<const char> missing) const {
  std::vector<std::uint64_t> fresh;
  {
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; i < duty_key.size(); ++i) {
      if (missing[i] && seen.insert(duty_key[i]).second) {
        fresh.push_back(duty_key[i]);
      }
    }
  }
  if (fresh.empty()) return snapshot;
  std::vector<nbti::SnPrefix> prefixes(fresh.size());
  common::parallel_for(static_cast<int>(fresh.size()), cond_.n_threads,
                       [&](int i) {
                         prefixes[i] = nbti::make_sn_prefix(
                             std::bit_cast<double>(fresh[i]));
                       });
  const auto with_fresh = [&](const PrefixMemo& base) {
    auto next = std::make_shared<PrefixMemo>(base);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      next->try_emplace(fresh[i], prefixes[i]);
    }
    return next;
  };

  // Copy-on-write: builds attaching contexts keep reading the snapshot they
  // took.  An invalidate_stress_cache() since the snapshot dropped entries
  // this build still reads, so then the build keeps its own snapshot plus
  // the new prefixes.
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const bool unchanged = prefix_memo_ == snapshot;
  prefix_memo_ = with_fresh(*prefix_memo_);
  return unchanged ? prefix_memo_ : with_fresh(*snapshot);
}

void AgingAnalyzer::invalidate_stress_cache() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  stress_cache_.clear();
  prefix_memo_ = std::make_shared<const PrefixMemo>();
}

std::vector<double> AgingAnalyzer::gate_dvth(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  const double horizon = total_time.value_or(cond_.total_time);
  const std::shared_ptr<const StressDescriptors> desc =
      stress_descriptors(policy);

  // Evaluation phase: gate chunks wide enough for the kernel's packed inner
  // loop; each gate writes only its own slot, so the result is identical
  // for every thread count and chunk size.  Chunks own disjoint device
  // ranges, so they can share the two device-wide work buffers —
  // thread-local so horizon sweeps (degradation series, crossing-time
  // scans) pay no per-call allocation.  Each calling thread owns its pair;
  // pool workers only write the disjoint slices they are handed.
  std::vector<double> dvth(nl_->num_gates(), 0.0);
  const auto n_devices = static_cast<std::size_t>(desc->kernel.num_devices());
  static thread_local std::vector<double> dev_out;
  static thread_local std::vector<double> dev_scratch;
  if (dev_out.size() < n_devices) {
    dev_out.resize(n_devices);
    dev_scratch.resize(n_devices);
  }
  // Lambdas do not capture thread_locals — a pool worker would see its own
  // (empty) instances — so hand the workers spans bound on this thread.
  const std::span<double> dev_span(dev_out);
  const std::span<double> scratch_span(dev_scratch);
  const int n_chunks =
      (nl_->num_gates() + kKernelGateChunk - 1) / kKernelGateChunk;
  common::parallel_for(n_chunks, cond_.n_threads, [&](int c) {
    const int g_lo = c * kKernelGateChunk;
    const int g_hi = std::min(nl_->num_gates(), g_lo + kKernelGateChunk);
    desc->kernel.worst_per_gate(horizon, desc->gate_begin, g_lo, g_hi, dvth,
                                dev_span, scratch_span);
  });
  return dvth;
}

std::vector<double> AgingAnalyzer::aged_gate_delays(
    std::span<const double> dvth) const {
  if (static_cast<int>(dvth.size()) != nl_->num_gates()) {
    throw std::invalid_argument("aged_gate_delays: dvth size mismatch");
  }
  if (!cond_.taylor_delay) {
    std::vector<double> delays = sta_.gate_delays(cond_.sta_temperature, dvth,
                                                  cond_.gate_vth_offsets);
    if (!cond_.gate_delay_scale.empty()) {
      for (int gi = 0; gi < nl_->num_gates(); ++gi) {
        delays[gi] *= cond_.gate_delay_scale[gi];
      }
    }
    return delays;
  }
  // Paper eqs. (21)-(22): delta_d = alpha * dVth / (Vg - Vth0) * d.
  const double vdd = lib_->params().vdd;
  const double vth0 = lib_->params().pmos.vth0;
  const double alpha = lib_->params().pmos.alpha;
  std::vector<double> delays(fresh_delays_);
  for (int gi = 0; gi < nl_->num_gates(); ++gi) {
    const double offset =
        cond_.gate_vth_offsets.empty() ? 0.0 : cond_.gate_vth_offsets[gi];
    delays[gi] *= 1.0 + alpha * dvth[gi] / (vdd - vth0 - offset);
  }
  return delays;
}

double AgingAnalyzer::aged_critical_delay(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  // critical_delay skips the arrival copy / predecessor bookkeeping /
  // path walk that analyze() pays — this is the hot query of the Pareto,
  // sleep-transistor and lifetime sweeps, which never read the path.
  std::vector<double> arrival_scratch;
  return sta_.critical_delay(aged_gate_delays(gate_dvth(policy, total_time)),
                             arrival_scratch);
}

DegradationReport AgingAnalyzer::analyze(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  DegradationReport rep;
  rep.gate_dvth = gate_dvth(policy, total_time);
  rep.fresh_delay = fresh_critical_delay_;
  rep.aged_delay = sta_.analyze(aged_gate_delays(rep.gate_dvth)).max_delay;
  return rep;
}

DegradationReport AgingAnalyzer::analyze_slew_aware(
    const StandbyPolicy& policy, std::optional<double> total_time) const {
  const sta::SlewStaEngine slew(*nl_, *lib_);
  DegradationReport rep;
  rep.gate_dvth = gate_dvth(policy, total_time);
  rep.fresh_delay =
      slew.analyze(cond_.sta_temperature, {}, cond_.gate_vth_offsets)
          .max_delay;
  rep.aged_delay = slew.analyze(cond_.sta_temperature, rep.gate_dvth,
                                cond_.gate_vth_offsets)
                       .max_delay;
  return rep;
}

std::vector<std::pair<double, double>> AgingAnalyzer::degradation_series(
    const StandbyPolicy& policy, double t_min, double t_max,
    int n_points) const {
  if (n_points < 2 || t_min <= 0.0 || t_max <= t_min) {
    throw std::invalid_argument("degradation_series: bad sampling spec");
  }
  std::vector<std::pair<double, double>> series;
  series.reserve(n_points);
  const double log_step = std::log(t_max / t_min) / (n_points - 1);
  // The first aged_critical_delay call builds (and caches) the policy's
  // stress descriptors; every further horizon reuses them, and the fresh
  // baseline is the precomputed fresh_critical_delay().
  const double fresh = fresh_critical_delay_;
  for (int i = 0; i < n_points; ++i) {
    const double t = t_min * std::exp(log_step * i);
    const double aged = aged_critical_delay(policy, t);
    series.emplace_back(t,
                        fresh > 0.0 ? 100.0 * (aged - fresh) / fresh : 0.0);
  }
  return series;
}

}  // namespace nbtisim::aging
