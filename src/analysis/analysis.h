/// \file analysis.h
/// \brief The analysis registry: every paper technique as a uniform,
///        campaign-sweepable grid analysis.
///
/// The paper's evaluation is one big grid — benchmarks × (RAS, T_active,
/// T_standby) × technique — and related mitigation studies (OptGM-style
/// comparisons, multiplier hardening under NBTI + process variation) evaluate
/// techniques side-by-side under identical conditions. This layer gives that
/// grid a single extension point: an `Analysis` maps one `EvalContext`
/// (the shared per-(netlist, condition) cached state) to a flat metric list,
/// and the `AnalysisRegistry` maps canonical names to implementations.
///
/// Adding a technique is one self-registering file: implement `Analysis`,
/// expose a factory, and seed it in register_builtin_analyses() — the
/// campaign grid, task hashing, CLI listing and summarize columns all pick
/// it up without touching the engine.
///
/// Hashing contract: fingerprint() returns exactly the Params fields the
/// analysis consumes, so a campaign store row is invalidated when — and only
/// when — a parameter that could change its result changes. Shared pipeline
/// knobs (sp_vectors, seed) appear in every fingerprint; technique knobs
/// (e.g. sizing_step) appear only in their technique's.
///
/// Determinism contract: run() must be bit-identical for every scheduler
/// thread count. Inner engines are invoked with EvalContext::n_threads() —
/// 0 under the campaign engine, i.e. the shared work pool, which runs them
/// serially when the task already executes on a pool worker (see
/// common/pool.h) — and every inner engine is itself bit-identical for any
/// thread count, so this holds by construction;
/// registry iteration (std::map) and metric order (fixed per analysis) are
/// deterministic too.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

namespace nbtisim::analysis {

/// One operating scenario: stress schedule + lifetime horizon.
struct Condition {
  double ras_active = 1.0;
  double ras_standby = 9.0;
  double t_active = 400.0;   ///< [K]
  double t_standby = 330.0;  ///< [K]
  double years = 10.0;

  /// Stable human-readable form, e.g. "ras1:9,ta400,ts330,y10" — part of
  /// every task key.
  std::string label() const;
};

/// Engine knobs shared by every task of a campaign. Each analysis hashes
/// only the fields it consumes (see fingerprint()).
struct Params {
  // Shared pipeline knobs — consumed by every analysis through the
  // AgingAnalyzer's signal-statistics pass.
  int sp_vectors = 1024;      ///< active-mode Monte-Carlo vectors
  std::uint64_t seed = 7;
  // lifetime
  int samples = 100;          ///< lifetime Monte-Carlo samples
  double spec_margin = 5.0;   ///< lifetime failure margin [%]
  // ivc
  int population = 32;        ///< MLV search population
  int max_rounds = 8;         ///< MLV search rounds
  // st
  double st_sigma = 0.05;     ///< sleep-transistor time-0 penalty budget
  // sizing
  double sizing_margin = 3.0; ///< aged-delay spec margin over fresh [%]
  double sizing_step = 0.5;   ///< multiplicative step added per move
  double sizing_max_size = 4.0;  ///< per-gate size cap
  int sizing_max_moves = 600;    ///< greedy iteration cap
  /// Slack window for multi-path sizing [% of aged critical delay];
  /// 0 keeps the classic single-critical-path loop.
  double sizing_slack_window = 0.0;
  int sizing_moves_per_round = 1;  ///< committed moves per round (window mode)
  // derate
  std::vector<double> derate_years = {1.0, 2.0, 3.0, 5.0, 7.0, 10.0};
  // pareto
  int pareto_samples = 64;    ///< initial random standby vectors
  int pareto_rounds = 3;      ///< bit-flip local-search rounds
  int pareto_flips = 8;       ///< flips tried per front member
  // criticality
  int crit_samples = 300;     ///< criticality Monte-Carlo samples
  double crit_sigma = 0.015;  ///< per-gate Vth variation [V]
  // multi + failure (shared wear-out knobs)
  double clock_ghz = 1.0;     ///< HCI / EM switching clock [GHz]
  double pbti_ratio = 0.35;   ///< PBTI/NBTI K_v ratio
  // thermal
  double thermal_power = 60.0;        ///< dynamic power [W]
  double thermal_replication = 1e5;   ///< identical blocks on the die
  double thermal_runaway_k = 1000.0;  ///< runaway declaration threshold [K]
  // failure
  double fail_dvth = 0.05;       ///< wear-out failure threshold [V]
  double fail_max_years = 100.0; ///< crossing-search window [years]
  int fail_points = 40;          ///< geometric time-grid points
  double weibull_beta = 2.0;     ///< unit-lifetime Weibull shape
  std::vector<double> fail_curve_years = {1.0, 2.0, 5.0, 10.0, 20.0, 30.0};
  // multi + thermal + failure
  /// Standby state: "stressed", "relaxed", "zeros", "ones" or "mlv" (see
  /// EvalContext::standby_policy / standby_vector); empty = each
  /// analysis's default (all stressed; thermal: all-0 inputs).
  std::string standby;
};

/// Ordered metric list — the order is the JSONL member order, so it must be
/// deterministic per analysis kind. Values are JSON nodes: most entries are
/// plain scalars (a double converts implicitly), but an analysis may attach
/// structured payloads — nested arrays/objects such as a full Pareto front,
/// a per-gate criticality vector, or a failure curve — alongside its scalar
/// summary. Scalar entries keep the legacy flat name→double contract;
/// summarize and the store index consider only scalar (number) entries.
using Metrics = std::vector<std::pair<std::string, common::json::Value>>;

class EvalContext;

/// One paper technique, evaluated on one grid cell.
class Analysis {
 public:
  virtual ~Analysis() = default;

  /// Canonical lowercase name — the spec/CLI/store identifier.
  virtual std::string_view name() const = 0;

  /// Canonical key fragment over exactly the Params fields this analysis
  /// consumes, e.g. "sp1024,seed7,mc100,margin5". Part of the task content
  /// hash: changing a consumed field must change it; changing any other
  /// field must not.
  virtual std::string fingerprint(const Params& p) const = 0;

  /// Evaluates the technique on \p ctx. Must be bit-identical for every
  /// campaign thread count (see file comment).
  virtual Metrics run(EvalContext& ctx, const Params& p) const = 0;
};

/// Open name → Analysis map with deterministic (sorted) iteration order.
class AnalysisRegistry {
 public:
  /// The process-wide registry, seeded once with the built-in analyses.
  /// Thread-safe to read; add() further entries only during
  /// single-threaded startup.
  static AnalysisRegistry& global();

  /// \throws std::invalid_argument when the name is already registered
  void add(std::unique_ptr<Analysis> a);

  /// nullptr when unknown.
  const Analysis* find(std::string_view name) const;

  /// \throws std::invalid_argument for unknown names, listing the known ones
  const Analysis& at(std::string_view name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::unique_ptr<Analysis>, std::less<>> by_name_;
};

// Built-in analysis factories — one per self-registering file.
std::unique_ptr<Analysis> make_aging_analysis();        // aging_analysis.cpp
std::unique_ptr<Analysis> make_ivc_analysis();          // ivc_analysis.cpp
std::unique_ptr<Analysis> make_st_analysis();           // st_analysis.cpp
std::unique_ptr<Analysis> make_lifetime_analysis();     // lifetime_analysis.cpp
std::unique_ptr<Analysis> make_sizing_analysis();       // sizing_analysis.cpp
std::unique_ptr<Analysis> make_derate_analysis();       // derate_analysis.cpp
std::unique_ptr<Analysis> make_pareto_analysis();       // pareto_analysis.cpp
std::unique_ptr<Analysis> make_criticality_analysis();  // criticality_analysis.cpp
std::unique_ptr<Analysis> make_multi_analysis();        // multi_analysis.cpp
std::unique_ptr<Analysis> make_thermal_analysis();      // thermal_analysis.cpp
std::unique_ptr<Analysis> make_failure_analysis();      // failure_analysis.cpp

/// Seeds \p r with the built-ins (what global() does once).
/// \throws std::invalid_argument when any name is already present
void register_builtin_analyses(AnalysisRegistry& r);

/// %g-formatted double for stable, compact fingerprints ("330", "0.05").
std::string fmt_g(double v);

/// Shared-knob prefix every fingerprint starts with: "sp<N>,seed<S>".
std::string base_fingerprint(const Params& p);

/// ",sb<mode>" when Params::standby is set, else "" — so the hashes of
/// stores written before the knob existed stay valid.
std::string standby_fingerprint(const Params& p);

}  // namespace nbtisim::analysis
