// Differential tests: the optimized evaluation paths (incremental
// SizedTiming, parallel sizing argmax, horizon-batched derate, batched
// electrothermal sweeps and the SoA degradation kernel) property-tested
// against the deliberately naive reference evaluators — support/reference.h
// and the per-device one-shot model — across random dag: netlists, seeds,
// temperatures, duty cycles, thread counts and horizons.  Comparisons are
// exact (double ==): the optimized paths are bit-identical to brute force by
// construction, and these tests are what enforce that contract.

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aging/failure.h"
#include "nbti/rd_kernel.h"
#include "netlist/generators.h"
#include "opt/sizing.h"
#include "report/derate.h"
#include "support/reference.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"

namespace nbtisim {
namespace {

aging::AgingConditions fast_conditions() {
  aging::AgingConditions cond;
  cond.sp_vectors = 256;  // small Monte-Carlo pass; exactness is what is
                          // under test, not the statistics
  return cond;
}

netlist::Netlist random_dag(int n_inputs, int n_gates, std::uint64_t seed) {
  netlist::RandomDagSpec spec;
  spec.n_inputs = n_inputs;
  spec.n_outputs = n_inputs > 4 ? n_inputs / 2 : 2;
  spec.n_gates = n_gates;
  spec.seed = seed;
  return netlist::make_random_dag("dag", spec);
}

TEST(DifferentialTest, IncrementalSizedTimingMatchesBruteForceRebuild) {
  struct Case {
    int inputs;
    int gates;
    std::uint64_t netlist_seed;
    std::uint64_t step_seed;
    double years;
  };
  const std::vector<Case> cases = {
      {8, 40, 1, 11, 10.0},  {8, 40, 2, 12, 3.0},   {8, 60, 3, 13, 10.0},
      {10, 60, 4, 14, 1.0},  {10, 80, 5, 15, 10.0}, {12, 80, 6, 16, 5.0},
      {12, 100, 7, 17, 2.0}, {16, 100, 8, 18, 10.0}, {16, 120, 9, 19, 7.0},
      {6, 30, 10, 20, 10.0}, {20, 150, 11, 21, 4.0}, {14, 90, 12, 22, 10.0},
  };

  const tech::Library lib;
  int checked = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "dag:" << c.inputs << "x" << c.gates
                                      << "@" << c.netlist_seed << " years="
                                      << c.years);
    const netlist::Netlist nl =
        random_dag(c.inputs, c.gates, c.netlist_seed);
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    const std::vector<double> dvth = an.gate_dvth(
        aging::StandbyPolicy::all_stressed(), c.years * kSecondsPerYear);

    opt::SizedTiming timing(an, dvth);
    std::vector<double> sizes(nl.num_gates(), 1.0);
    timing.set_sizes(sizes);

    std::mt19937_64 rng(c.step_seed);
    std::vector<double> scratch;
    for (int step = 0; step < 10; ++step) {
      const int gate = static_cast<int>(
          rng() % static_cast<std::uint64_t>(nl.num_gates()));
      const double new_size =
          1.0 + 0.25 * static_cast<double>(1 + rng() % 12);  // (1, 4]

      // Trial evaluation vs a from-scratch rebuild with the trial sizes.
      const sta::TimingResult got =
          timing.evaluate_resize(gate, new_size, scratch);
      std::vector<double> trial_sizes = sizes;
      trial_sizes[gate] = new_size;
      const std::vector<double> want_delays =
          testsupport::reference_aged_delays(an, dvth, trial_sizes);
      ASSERT_EQ(scratch.size(), want_delays.size());
      for (std::size_t gi = 0; gi < want_delays.size(); ++gi) {
        ASSERT_EQ(scratch[gi], want_delays[gi]) << "gate " << gi;
      }
      const sta::TimingResult want = an.sta().analyze(want_delays);
      EXPECT_EQ(got.max_delay, want.max_delay);
      EXPECT_EQ(got.critical_path, want.critical_path);
      ++checked;

      // Commit roughly every other step and re-check the cached vector.
      if (rng() & 1) {
        timing.commit_resize(gate, new_size);
        sizes[gate] = new_size;
        const std::vector<double> want_cached =
            testsupport::reference_aged_delays(an, dvth, sizes);
        for (std::size_t gi = 0; gi < want_cached.size(); ++gi) {
          ASSERT_EQ(timing.current_delays()[gi], want_cached[gi])
              << "gate " << gi;
        }
        EXPECT_EQ(timing.analyze_current().max_delay,
                  an.sta().analyze(want_cached).max_delay);
        ++checked;
      }
    }
  }
  // The acceptance bar for this suite: at least 100 randomized differential
  // comparisons of the incremental path against the brute-force rebuild.
  EXPECT_GE(checked, 100);
}

TEST(DifferentialTest, SizeForLifetimeMatchesReferenceAcrossThreadCounts) {
  const std::vector<std::uint64_t> seeds = {3, 7, 21, 42};
  const tech::Library lib;
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "dag seed " << seed);
    const netlist::Netlist nl = random_dag(12, 80, seed);
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    const aging::StandbyPolicy policy = aging::StandbyPolicy::all_stressed();
    const opt::SizingParams base{.spec_margin_percent = 1.0, .size_step = 0.5,
                                 .max_moves = 30};

    const opt::SizingResult want =
        testsupport::reference_size_for_lifetime(an, policy, base);
    EXPECT_GT(want.moves, 0);  // the comparison must exercise the loop
    for (int n_threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
      opt::SizingParams params = base;
      params.n_threads = n_threads;
      const opt::SizingResult got = opt::size_for_lifetime(an, policy, params);
      EXPECT_EQ(got.sizes, want.sizes);
      EXPECT_EQ(got.moves, want.moves);
      EXPECT_EQ(got.met, want.met);
      EXPECT_EQ(got.fresh_delay, want.fresh_delay);
      EXPECT_EQ(got.spec, want.spec);
      EXPECT_EQ(got.aged_before, want.aged_before);
      EXPECT_EQ(got.aged_after, want.aged_after);
    }
  }
}

TEST(DifferentialTest, DerateTableMatchesPerCellReference) {
  const tech::Library lib;
  for (std::uint64_t seed : {5ULL, 9ULL}) {
    SCOPED_TRACE(::testing::Message() << "dag seed " << seed);
    const netlist::Netlist nl = random_dag(10, 60, seed);
    const aging::AgingAnalyzer an(nl, lib, fast_conditions());
    // Unsorted with a duplicate: order must be preserved, not normalized.
    const std::vector<double> years = {7.0, 1.0, 3.0, 3.0, 10.0};

    const report::DerateTable want =
        testsupport::reference_derate_table(an, years);
    for (int n_threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
      const report::DerateTable got =
          report::aging_derate_table(an, years, n_threads);
      EXPECT_EQ(got.years, want.years);
      EXPECT_EQ(got.policy_names, want.policy_names);
      ASSERT_EQ(got.factors.size(), want.factors.size());
      for (std::size_t p = 0; p < want.factors.size(); ++p) {
        EXPECT_EQ(got.factors[p], want.factors[p]) << "policy " << p;
      }
    }
  }
}

TEST(DifferentialTest, ElectrothermalSweepMatchesSerialReference) {
  const tech::Library lib;
  const netlist::Netlist nl = random_dag(10, 60, 13);
  const thermal::RcThermalModel model;
  const std::vector<bool> zeros(nl.num_inputs(), false);
  const std::vector<double> powers = {5.0, 20.0, 60.0, 100.0, 130.0};
  const thermal::ElectrothermalParams params{.replication = 1e5};

  const std::vector<thermal::OperatingPoint> want =
      testsupport::reference_operating_points(nl, lib, model, zeros, powers,
                                              params);
  for (int n_threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads);
    const std::vector<thermal::OperatingPoint> got =
        thermal::solve_operating_points(nl, lib, model, zeros, powers, params,
                                        n_threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "power " << powers[i]);
      EXPECT_EQ(got[i].temperature_k, want[i].temperature_k);
      EXPECT_EQ(got[i].leakage_w, want[i].leakage_w);
      EXPECT_EQ(got[i].iterations, want[i].iterations);
      EXPECT_EQ(got[i].converged, want[i].converged);
    }
  }
}

// --- SoA kernel vs the one-shot device model -------------------------------

TEST(DifferentialTest, SoaKernelGateDvthMatchesScalarAcrossRandomCases) {
  const tech::Library lib;
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  int checked = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const int n_inputs = 6 + 2 * (rep % 5);
    const int n_gates = 30 + 6 * rep;
    const netlist::Netlist nl =
        random_dag(n_inputs, n_gates, 100 + static_cast<std::uint64_t>(rep));

    aging::AgingConditions cond = fast_conditions();
    cond.schedule = nbti::ModeSchedule::from_ras(
        1.0 + 9.0 * u(rng), 9.0 * u(rng), 1000.0, 360.0 + 60.0 * u(rng),
        300.0 + 60.0 * u(rng));
    // Random PI probabilities with pinned 0/1 entries: the per-PMOS duty
    // cycles then span the whole range, including the exact DC (duty 1) and
    // never-stressed (duty 0) lanes the kernel treats specially.
    cond.input_sp.resize(nl.num_inputs());
    for (double& sp : cond.input_sp) {
      const double r = u(rng);
      sp = r < 0.15 ? 0.0 : (r > 0.85 ? 1.0 : u(rng));
    }
    // Every third case runs the exact per-cycle recursion: the kernel's
    // vector formula does not apply, so every non-DC lane must take the
    // scalar fixup path and still match bitwise.
    const bool exact = rep % 3 == 2;
    if (exact) cond.method = nbti::AcEvalMethod::ExactRecursion;
    const aging::AgingAnalyzer an(nl, lib, cond);

    std::vector<bool> standby_vec(nl.num_inputs());
    for (std::size_t i = 0; i < standby_vec.size(); ++i) {
      standby_vec[i] = u(rng) < 0.5;
    }
    const std::vector<aging::StandbyPolicy> policies = {
        aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::all_relaxed(),
        aging::StandbyPolicy::from_vector(standby_vec)};

    // Horizons span t = 0, the exact-recursion head (small cycle counts) and
    // the telescoped tail; recursion cases stay below 1e7 s to keep the
    // per-cycle evaluation affordable.
    std::vector<double> horizons = {0.0};
    const double t_max_exp = exact ? 7.0 : 9.5;
    for (int h = 0; h < 3; ++h) {
      horizons.push_back(std::pow(10.0, 3.0 + (t_max_exp - 3.0) * u(rng)));
    }

    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (double t : horizons) {
        SCOPED_TRACE(::testing::Message()
                     << "rep=" << rep << " policy=" << p << " t=" << t
                     << (exact ? " exact" : " closed"));
        const std::vector<double> got = an.gate_dvth(policies[p], t);
        const std::vector<double> want =
            testsupport::reference_gate_dvth(an, policies[p], t);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t g = 0; g < want.size(); ++g) {
          ASSERT_EQ(got[g], want[g]) << "gate " << g;
        }
        ++checked;
      }
    }
  }
  // The acceptance bar: at least 100 randomized kernel-vs-oracle sweeps,
  // every one an exact (bitwise) whole-circuit comparison.
  EXPECT_GE(checked, 100);
}

TEST(DifferentialTest, RdKernelMatchesScalarDeviceModelAcrossRandomContexts) {
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  int checked = 0;
  for (int rep = 0; rep < 6; ++rep) {
    const nbti::ModeSchedule schedule = nbti::ModeSchedule::from_ras(
        1.0 + 4.0 * u(rng), 9.0 * u(rng), 500.0 + 1000.0 * u(rng),
        360.0 + 60.0 * u(rng), 300.0 + 60.0 * u(rng));
    const nbti::AcEvalMethod method = rep % 2 == 0
                                          ? nbti::AcEvalMethod::ClosedForm
                                          : nbti::AcEvalMethod::ExactRecursion;
    const nbti::DeviceAging model(nbti::RdParams{}, method);

    std::vector<nbti::DeviceAging::StressContext> ctxs;
    // Handcrafted edge lanes first: full DC stress (duty 1), never stressed
    // (duty 0 / always_zero), and standby-only stress.
    nbti::DeviceStress dc;
    dc.active_stress_prob = 1.0;
    dc.standby = nbti::StandbyMode::Stressed;
    ctxs.push_back(model.make_context(dc, schedule));
    nbti::DeviceStress off;
    off.active_stress_prob = 0.0;
    off.standby = nbti::StandbyMode::Relaxed;
    ctxs.push_back(model.make_context(off, schedule));
    nbti::DeviceStress standby_only;
    standby_only.active_stress_prob = 0.0;
    standby_only.standby = nbti::StandbyMode::Stressed;
    ctxs.push_back(model.make_context(standby_only, schedule));
    for (int d = 0; d < 37; ++d) {
      nbti::DeviceStress s;
      const double r = u(rng);
      s.active_stress_prob = r < 0.1 ? 0.0 : (r > 0.9 ? 1.0 : u(rng));
      s.standby = u(rng) < 0.5 ? nbti::StandbyMode::Stressed
                               : nbti::StandbyMode::Relaxed;
      if (u(rng) < 0.25) s.standby_stress_fraction = u(rng);
      s.vgs = 0.9 + 0.3 * u(rng);
      s.vth0 = 0.18 + 0.08 * u(rng);
      ctxs.push_back(model.make_context(s, schedule));
    }
    const nbti::RdKernel kernel(model, ctxs);
    ASSERT_EQ(kernel.num_devices(), static_cast<int>(ctxs.size()));

    std::vector<double> out(ctxs.size());
    for (double t : {0.0, 3.0e3, 8.5e5, 4.0e7, 1.9e9}) {
      if (method == nbti::AcEvalMethod::ExactRecursion && t > 1.0e8) continue;
      SCOPED_TRACE(::testing::Message() << "rep=" << rep << " t=" << t);
      kernel.delta_vth(t, out);
      for (std::size_t i = 0; i < ctxs.size(); ++i) {
        ASSERT_EQ(out[i], model.delta_vth(ctxs[i], t)) << "device " << i;
        ++checked;
      }
    }
    // Sub-range evaluation addresses the same slots.
    std::vector<double> part(10);
    kernel.delta_vth(1.3e8, 7, 17, part);
    for (std::size_t i = 0; i < part.size(); ++i) {
      ASSERT_EQ(part[i], model.delta_vth(ctxs[7 + i], 1.3e8));
    }
  }
  EXPECT_GE(checked, 100);
}

// --- The two memos: duty -> S_n prefix, and the shared leakage tables ------

// More distinct policies than AgingAnalyzer keeps descriptors for (16), so
// a second pass over them rebuilds every policy from a warm duty memo.
// Rotating members add fractional standby duties the bounding policies
// never produce, so the memo also grows after it was first published.
std::vector<aging::StandbyPolicy> memo_policies(int n_inputs) {
  std::mt19937_64 rng(77);
  const auto random_vector = [&] {
    std::vector<bool> v(n_inputs);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = (rng() & 1u) != 0;
    return v;
  };
  std::vector<aging::StandbyPolicy> policies = {
      aging::StandbyPolicy::all_stressed(),
      aging::StandbyPolicy::all_relaxed()};
  for (int k = 0; k < 14; ++k) {
    policies.push_back(aging::StandbyPolicy::from_vector(random_vector()));
  }
  for (int k = 2; k <= 4; ++k) {
    std::vector<std::vector<bool>> rotation;
    for (int r = 0; r < k; ++r) rotation.push_back(random_vector());
    policies.push_back(aging::StandbyPolicy::rotating(std::move(rotation)));
  }
  return policies;
}

TEST(DifferentialTest, DutyMemoMatchesOracleThroughEvictionAndInvalidation) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const std::vector<aging::StandbyPolicy> policies =
      memo_policies(nl.num_inputs());
  ASSERT_GE(policies.size(), 17u);
  const double horizon = 3.0e8;

  std::vector<std::vector<double>> want;
  {
    const aging::AgingAnalyzer oracle_an(nl, lib, fast_conditions());
    for (const aging::StandbyPolicy& p : policies) {
      want.push_back(testsupport::reference_gate_dvth(oracle_an, p, horizon));
    }
  }
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };

  for (int n_threads : {1, 4, 8}) {
    aging::AgingConditions cond = fast_conditions();
    cond.n_threads = n_threads;
    const aging::AgingAnalyzer an(nl, lib, cond);
    // Pass 0 builds with a cold memo, pass 1 rebuilds every evicted policy
    // from the warm memo, pass 2 runs after invalidate_stress_cache().
    for (int pass = 0; pass < 3; ++pass) {
      if (pass == 2) an.invalidate_stress_cache();
      for (std::size_t i = 0; i < policies.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "n_threads=" << n_threads
                                          << " pass=" << pass << " policy=" << i);
        ASSERT_EQ(bits(an.gate_dvth(policies[i], horizon)), bits(want[i]));
      }
      EXPECT_EQ(an.stress_build_count(), (pass + 1) * policies.size());
    }
  }
}

TEST(DifferentialTest, DutyMemoConcurrentBuildsMatchOracle) {
  // Several callers build descriptors on one analyzer at once while another
  // drops its caches: each build reads its own memo snapshot, so every
  // answer is still the oracle's.
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const std::vector<aging::StandbyPolicy> policies =
      memo_policies(nl.num_inputs());
  aging::AgingConditions cond = fast_conditions();
  cond.n_threads = 2;
  const aging::AgingAnalyzer an(nl, lib, cond);
  std::vector<std::vector<double>> want;
  for (const aging::StandbyPolicy& p : policies) {
    want.push_back(testsupport::reference_gate_dvth(an, p, cond.total_time));
  }

  constexpr int kCallers = 4;
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t k = 0; k < policies.size(); ++k) {
        const std::size_t i = (k * 7 + static_cast<std::size_t>(c) * 5) %
                              policies.size();
        if (c == 0 && k % 6 == 5) an.invalidate_stress_cache();
        if (an.gate_dvth(policies[i]) != want[i]) ++mismatches[c];
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(mismatches[c], 0) << c;
}

TEST(DifferentialTest, LazyLeakageTableMatchesCellLeakageAcrossThreads) {
  const tech::Library lib;
  const double temp = 371.5;
  const std::shared_ptr<const tech::LeakageTable> table =
      lib.leakage_table(temp);
  // Oracle, from Library::cell_leakage alone.
  std::vector<std::vector<double>> direct(lib.num_cells());
  for (tech::CellId c = 0; c < lib.num_cells(); ++c) {
    for (std::uint32_t v = 0; v < (1u << lib.cell(c).num_pins()); ++v) {
      direct[c].push_back(lib.cell_leakage(c, v, temp));
    }
  }
  const auto pin_sp = [](int pins, int salt) {
    std::vector<double> sp;
    for (int i = 0; i < pins; ++i) sp.push_back(0.1 + 0.2 * ((i + salt) % 5));
    return sp;
  };

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread asks the memo for the table and walks the cells in its
      // own order, mixing all three readers so threads meet on entries
      // another thread is filling.
      if (lib.leakage_table(temp) != table) ++mismatches[t];
      for (int k = 0; k < lib.num_cells(); ++k) {
        const tech::CellId c = (k * 5 + t * 3) % lib.num_cells();
        const int pins = lib.cell(c).num_pins();
        const std::vector<double> sp = pin_sp(pins, t);
        double want_expected = 0.0;
        std::uint32_t want_min = 0;
        for (std::uint32_t v = 0; v < direct[c].size(); ++v) {
          double prob = 1.0;
          for (int i = 0; i < pins; ++i) {
            prob *= ((v >> i) & 1u) ? sp[i] : (1.0 - sp[i]);
          }
          want_expected += prob * direct[c][v];
          if (direct[c][v] < direct[c][want_min]) want_min = v;
        }
        if (t % 2 == 0 &&
            std::bit_cast<std::uint64_t>(table->expected_leakage(c, sp)) !=
                std::bit_cast<std::uint64_t>(want_expected)) {
          ++mismatches[t];
        }
        if (t % 3 == 0 && table->min_leakage_vector(c) != want_min) {
          ++mismatches[t];
        }
        for (std::uint32_t v = 0; v < direct[c].size(); ++v) {
          const std::uint32_t w = (v + static_cast<std::uint32_t>(t)) %
                                  static_cast<std::uint32_t>(direct[c].size());
          if (std::bit_cast<std::uint64_t>(table->leakage(c, w)) !=
              std::bit_cast<std::uint64_t>(direct[c][w])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST(DifferentialTest, CachedLeakageOperatingPointMatchesFreshCharacterization) {
  // One library serves every solve, so later solves (and the parallel
  // sweep's fan-out) read tables filled by earlier ones; the oracle
  // characterizes every gate afresh at every iterate.
  const tech::Library lib;
  const netlist::Netlist nl = random_dag(12, 90, 31);
  const thermal::RcThermalModel model;
  const std::vector<bool> zeros(nl.num_inputs(), false);
  const std::vector<double> powers = {20.0, 60.0, 60.0, 100.0};
  const thermal::ElectrothermalParams params{.replication = 1e5};
  const std::vector<thermal::OperatingPoint> want =
      testsupport::reference_operating_points(nl, lib, model, zeros, powers,
                                              params);
  const auto same = [](const thermal::OperatingPoint& a,
                       const thermal::OperatingPoint& b) {
    return std::bit_cast<std::uint64_t>(a.temperature_k) ==
               std::bit_cast<std::uint64_t>(b.temperature_k) &&
           std::bit_cast<std::uint64_t>(a.leakage_w) ==
               std::bit_cast<std::uint64_t>(b.leakage_w) &&
           a.iterations == b.iterations && a.converged == b.converged;
  };
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < powers.size(); ++i) {
      thermal::ElectrothermalParams cell = params;
      cell.dynamic_power_w = powers[i];
      EXPECT_TRUE(same(thermal::solve_operating_point(nl, lib, model, zeros,
                                                      cell),
                       want[i]))
          << "round " << round << " power " << powers[i];
    }
  }
  for (int n_threads : {1, 4, 8}) {
    const tech::Library fresh;  // cold memo for every thread count
    const std::vector<thermal::OperatingPoint> got =
        thermal::solve_operating_points(nl, fresh, model, zeros, powers,
                                        params, n_threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(same(got[i], want[i]))
          << "n_threads " << n_threads << " power " << powers[i];
    }
  }
}

}  // namespace
}  // namespace nbtisim
