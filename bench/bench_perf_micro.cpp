/// \file bench_perf_micro.cpp
/// \brief google-benchmark throughput micro-benchmarks for the engine:
///        device-model evaluation, stack solving, logic simulation, STA,
///        full aging analysis and MLV search — plus self-timed
///        serial-vs-parallel sections that write BENCH_aging.json,
///        BENCH_variation.json, BENCH_sizing.json, BENCH_sta.json,
///        BENCH_campaign.json, BENCH_pool.json, BENCH_multi.json,
///        BENCH_registry.json and BENCH_query.json (see EXPERIMENTS.md
///        "Performance") before the google-benchmark suite runs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>

#include "aging/failure.h"
#include "aging/multi.h"
#include "analysis/analysis.h"
#include "campaign/engine.h"
#include "campaign/index.h"
#include "campaign/store.h"
#include "common/json.h"
#include "common/pool.h"
#include "query/query.h"
#include "sta/incremental.h"
#include "sta/slew_sta.h"
#include "netlist/generators.h"
#include "opt/ivc.h"
#include "opt/mlv.h"
#include "opt/sizing.h"
#include "report/derate.h"
#include "tech/stack.h"
#include "tech/units.h"
#include "thermal/electrothermal.h"
#include "variation/criticality.h"
#include "variation/lifetime.h"
#include "variation/variation.h"

#include "support/reference.h"  // naive oracles for the "before" legs

using namespace nbtisim;

namespace {

void BM_DeviceDeltaVth(benchmark::State& state) {
  const nbti::DeviceAging model;
  const nbti::DeviceStress stress{0.5, nbti::StandbyMode::Stressed, 1.0, 0.22};
  const auto sched = nbti::ModeSchedule::from_ras(1, 9, 1000.0, 400.0, 330.0);
  double t = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.delta_vth(stress, sched, t));
    t = t < 3e8 ? t * 1.01 : 1e6;
  }
}
BENCHMARK(BM_DeviceDeltaVth);

void BM_StackSolve(benchmark::State& state) {
  const tech::DeviceParams nmos = tech::default_device(tech::Channel::Nmos);
  const std::vector<tech::StackDevice> stack(
      state.range(0), tech::StackDevice{360e-9, false, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tech::solve_stack(nmos, stack, 1.0, 1.0, 400.0));
  }
}
BENCHMARK(BM_StackSolve)->Arg(2)->Arg(3)->Arg(4);

void BM_LeakageTableBuild(benchmark::State& state) {
  // Entries fill on first read, so price a full characterization.
  const tech::Library lib;
  for (auto _ : state) {
    const tech::LeakageTable table(lib, 400.0);
    table.characterize_all();
    benchmark::DoNotOptimize(table.leakage(0, 0));
  }
}
BENCHMARK(BM_LeakageTableBuild);

void BM_LogicSimWords(benchmark::State& state) {
  const netlist::Netlist nl = netlist::iscas85_like("c3540");
  const sim::Simulator simulator(nl);
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (auto& w : words) w = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.evaluate_words(words));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates() * 64);
}
BENCHMARK(BM_LogicSimWords);

void BM_StaAnalyze(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c5315");
  const sta::StaEngine sta(nl, lib);
  const std::vector<double> delays = sta.gate_delays(400.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta.analyze(delays));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_StaAnalyze);

void BM_FullAgingAnalysis(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c880");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.analyze(aging::StandbyPolicy::all_stressed()));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_FullAgingAnalysis);

void BM_SlewStaAnalyze(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c1908");
  const sta::SlewStaEngine slew(nl, lib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(slew.analyze(400.0));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_SlewStaAnalyze);

void BM_MultiMechanism(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.sp_vectors = 512;
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aging::analyze_multi_mechanism(
        analyzer, aging::StandbyPolicy::all_stressed()));
  }
}
BENCHMARK(BM_MultiMechanism);

void BM_MlvSearch(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const leakage::LeakageAnalyzer an(nl, lib, 330.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::find_mlv_set(an, {.population = 32, .max_rounds = 6}));
  }
}
BENCHMARK(BM_MlvSearch);

void BM_EstimateSignalStats(benchmark::State& state) {
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  const int n_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::estimate_signal_stats(nl, sp, 4096, 7, n_threads));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates() * 4096);
}
BENCHMARK(BM_EstimateSignalStats)->Arg(1)->Arg(8);

void BM_GateDvthCached(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  cond.n_threads = static_cast<int>(state.range(0));
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  benchmark::DoNotOptimize(analyzer.gate_dvth(policy));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.gate_dvth(policy));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK(BM_GateDvthCached)->Arg(1)->Arg(8);

void BM_DegradationSeries(benchmark::State& state) {
  const tech::Library lib;
  const netlist::Netlist nl = netlist::iscas85_like("c432");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  cond.n_threads = static_cast<int>(state.range(0));
  const aging::AgingAnalyzer analyzer(nl, lib, cond);
  for (auto _ : state) {
    analyzer.invalidate_stress_cache();
    benchmark::DoNotOptimize(analyzer.degradation_series(
        aging::StandbyPolicy::all_stressed(), 1e6, 3e8, 64));
  }
}
BENCHMARK(BM_DegradationSeries)->Arg(1)->Arg(8);

// ---------------------------------------------------------------------------
// Self-timed serial-vs-parallel section -> BENCH_aging.json.
//
// "serial / before" legs reproduce the seed implementation's cost model:
// one thread, and (for the aging pipeline) the per-gate stress descriptors
// rebuilt at every time point.  "parallel / after" legs use the cached
// descriptors and 8 worker threads.  Outputs are asserted bit-identical.
// invalidate_stress_cache() also drops the analyzer's duty memo, so every
// leg that calls it prices a cold build, S_n recursions included.

using Clock = std::chrono::steady_clock;

template <typename Fn>
double time_ms(Fn&& fn, int repeats = 3) {
  double best = 1e300;  // best-of-N: robust against scheduler noise
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct AgingCase {
  std::string name;
  std::string netlist;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

AgingCase case_signal_stats(const netlist::Netlist& nl) {
  const std::vector<double> sp(nl.num_inputs(), 0.5);
  AgingCase c{"estimate_signal_stats_4096", nl.name(), 0, 0, false};
  sim::SignalStats serial, parallel;
  c.serial_ms =
      time_ms([&] { serial = sim::estimate_signal_stats(nl, sp, 4096, 7, 1); });
  c.parallel_ms = time_ms(
      [&] { parallel = sim::estimate_signal_stats(nl, sp, 4096, 7, 8); });
  c.identical = serial.probability == parallel.probability &&
                serial.activity == parallel.activity;
  return c;
}

AgingCase case_gate_dvth(const netlist::Netlist& nl, const tech::Library& lib) {
  aging::AgingConditions serial_cond, parallel_cond;
  serial_cond.sp_vectors = parallel_cond.sp_vectors = 1024;
  serial_cond.n_threads = 1;
  parallel_cond.n_threads = 8;
  const aging::AgingAnalyzer serial_an(nl, lib, serial_cond);
  const aging::AgingAnalyzer parallel_an(nl, lib, parallel_cond);
  const auto policy = aging::StandbyPolicy::all_stressed();

  AgingCase c{"gate_dvth_rebuild", nl.name(), 0, 0, false};
  std::vector<double> serial, parallel;
  c.serial_ms = time_ms([&] {
    serial_an.invalidate_stress_cache();
    serial = serial_an.gate_dvth(policy);
  });
  c.parallel_ms = time_ms([&] {
    parallel_an.invalidate_stress_cache();
    parallel = parallel_an.gate_dvth(policy);
  });
  c.identical = serial == parallel;
  return c;
}

AgingCase case_dvth_eval_kernel(const netlist::Netlist& nl,
                                const tech::Library& lib) {
  // The dVth-evaluation portion of a 64-point degradation series — the part
  // the SoA kernel layout changes (the STA half of the series is untouched):
  // the naive oracle (one-shot per-device calls, stress rebuilt per
  // horizon) vs the SoA kernel on warm stress descriptors, both
  // single-threaded.  Horizons start at 2e6 s so the telescoped tail (not
  // the exact-recursion head both paths share) dominates.
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  cond.n_threads = 1;
  const aging::AgingAnalyzer soa_an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  constexpr int kPoints = 64;
  std::vector<double> horizons(kPoints);
  for (int i = 0; i < kPoints; ++i) {
    horizons[i] = 2e6 * std::pow(150.0, i / static_cast<double>(kPoints - 1));
  }
  (void)soa_an.gate_dvth(policy, horizons[0]);  // warm the descriptors

  AgingCase c{"dvth_eval_64pt_kernel", nl.name(), 0, 0, false};
  std::vector<std::vector<double>> scalar_out(kPoints), soa_out(kPoints);
  c.serial_ms = time_ms(
      [&] {
        for (int i = 0; i < kPoints; ++i) {
          scalar_out[i] =
              testsupport::reference_gate_dvth(soa_an, policy, horizons[i]);
        }
      },
      1);  // seconds per pass: best-of-one is enough for the oracle leg
  c.parallel_ms = time_ms([&] {
    for (int i = 0; i < kPoints; ++i) {
      soa_out[i] = soa_an.gate_dvth(policy, horizons[i]);
    }
  });
  c.identical = scalar_out == soa_out;
  return c;
}

AgingCase case_degradation_series(const netlist::Netlist& nl,
                                  const tech::Library& lib) {
  aging::AgingConditions serial_cond, parallel_cond;
  serial_cond.sp_vectors = parallel_cond.sp_vectors = 1024;
  serial_cond.n_threads = 1;
  parallel_cond.n_threads = 8;
  const aging::AgingAnalyzer serial_an(nl, lib, serial_cond);
  const aging::AgingAnalyzer parallel_an(nl, lib, parallel_cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  constexpr int kPoints = 64;
  const double t_min = 1e6, t_max = 3e8;

  AgingCase c{"degradation_series_64pt", nl.name(), 0, 0, false};
  // Seed cost model: descriptors rebuilt from scratch at every point.
  std::vector<std::pair<double, double>> serial(kPoints), parallel;
  c.serial_ms = time_ms(
      [&] {
        const double log_step = std::log(t_max / t_min) / (kPoints - 1);
        for (int i = 0; i < kPoints; ++i) {
          serial_an.invalidate_stress_cache();
          const double t = t_min * std::exp(log_step * i);
          serial[i] = {t, serial_an.analyze(policy, t).percent()};
        }
      },
      1);
  c.parallel_ms = time_ms(
      [&] {
        parallel_an.invalidate_stress_cache();
        parallel = parallel_an.degradation_series(policy, t_min, t_max, kPoints);
      },
      1);
  c.identical = serial == parallel;
  return c;
}

void write_bench_aging_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const netlist::Netlist rand_dag = netlist::make_random_dag(
      "rand1500", {.n_inputs = 40, .n_outputs = 20, .n_gates = 1500,
                   .seed = 3, .locality = 0.75});

  std::vector<AgingCase> cases;
  for (const netlist::Netlist* nl : {&c432, &rand_dag}) {
    cases.push_back(case_signal_stats(*nl));
    cases.push_back(case_gate_dvth(*nl, lib));
    cases.push_back(case_degradation_series(*nl, lib));
  }
  // Kernel-layout section: scalar-vs-SoA legs rather than thread counts
  // (see EXPERIMENTS.md "SoA kernel").
  const AgingCase kernel = case_dvth_eval_kernel(rand_dag, lib);

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-aging-v2\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AgingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"kernel_cases\": [\n"
      << "    {\"name\": \"" << kernel.name << "\", \"netlist\": \""
      << kernel.netlist << "\", \"scalar_ms\": " << kernel.serial_ms
      << ", \"soa_ms\": " << kernel.parallel_ms << ", \"speedup\": "
      << (kernel.parallel_ms > 0.0 ? kernel.serial_ms / kernel.parallel_ms
                                   : 0.0)
      << ", \"bit_identical\": " << (kernel.identical ? "true" : "false")
      << "}\n"
      << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << " ("
            << std::thread::hardware_concurrency()
            << " hardware threads)\n";
  for (const AgingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, parallel "
              << c.parallel_ms << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
  std::cout << "  " << kernel.name << " [" << kernel.netlist << "]: scalar "
            << kernel.serial_ms << " ms, soa " << kernel.parallel_ms
            << " ms, speedup "
            << (kernel.parallel_ms > 0.0
                    ? kernel.serial_ms / kernel.parallel_ms
                    : 0.0)
            << (kernel.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed serial-vs-parallel section -> BENCH_variation.json.
//
// The Monte-Carlo and vector-search layers fan their independent samples /
// candidates over common::parallel_for with the same bit-identical contract
// as the aging pipeline: serial (1 thread) and parallel (8 threads) runs are
// asserted equal before the speedup is reported.

AgingCase case_mc_fresh(const aging::AgingAnalyzer& an) {
  AgingCase c{"mc_fresh_distribution_300", an.sta().netlist().name(), 0, 0,
              false};
  const variation::MonteCarloAging serial_mc(
      an, {.sigma_vth = 0.012, .samples = 300, .n_threads = 1});
  const variation::MonteCarloAging parallel_mc(
      an, {.sigma_vth = 0.012, .samples = 300, .n_threads = 8});
  variation::DelayDistribution serial, parallel;
  c.serial_ms = time_ms([&] { serial = serial_mc.fresh_distribution(); });
  c.parallel_ms = time_ms([&] { parallel = parallel_mc.fresh_distribution(); });
  c.identical = serial.delays == parallel.delays;
  return c;
}

AgingCase case_mc_aged(const aging::AgingAnalyzer& an) {
  AgingCase c{"mc_aged_distribution_300", an.sta().netlist().name(), 0, 0,
              false};
  const auto policy = aging::StandbyPolicy::all_stressed();
  constexpr double kThreeYears = 3.0 * 3.1536e7;
  const variation::MonteCarloAging serial_mc(
      an, {.sigma_vth = 0.012, .samples = 300, .n_threads = 1});
  const variation::MonteCarloAging parallel_mc(
      an, {.sigma_vth = 0.012, .samples = 300, .n_threads = 8});
  variation::DelayDistribution serial, parallel;
  c.serial_ms =
      time_ms([&] { serial = serial_mc.aged_distribution(policy, kThreeYears); });
  c.parallel_ms = time_ms(
      [&] { parallel = parallel_mc.aged_distribution(policy, kThreeYears); });
  c.identical = serial.delays == parallel.delays;
  return c;
}

AgingCase case_lifetime(const aging::AgingAnalyzer& an) {
  AgingCase c{"lifetime_distribution_100", an.sta().netlist().name(), 0, 0,
              false};
  const auto policy = aging::StandbyPolicy::all_stressed();
  variation::LifetimeParams p;
  p.samples = 100;
  variation::LifetimeResult serial, parallel;
  p.n_threads = 1;
  c.serial_ms =
      time_ms([&] { serial = variation::lifetime_distribution(an, policy, p); });
  p.n_threads = 8;
  c.parallel_ms = time_ms(
      [&] { parallel = variation::lifetime_distribution(an, policy, p); });
  c.identical = serial.lifetimes == parallel.lifetimes;
  return c;
}

AgingCase case_criticality(const aging::AgingAnalyzer& an) {
  AgingCase c{"gate_criticality_300", an.sta().netlist().name(), 0, 0, false};
  variation::CriticalityParams p;
  p.samples = 300;
  variation::CriticalityResult serial, parallel;
  p.n_threads = 1;
  c.serial_ms = time_ms([&] { serial = variation::gate_criticality(an, p); });
  p.n_threads = 8;
  c.parallel_ms = time_ms([&] { parallel = variation::gate_criticality(an, p); });
  c.identical = serial.probability == parallel.probability &&
                serial.distinct_paths == parallel.distinct_paths;
  return c;
}

AgingCase case_evaluate_ivc(const aging::AgingAnalyzer& an,
                            const leakage::LeakageAnalyzer& leak) {
  AgingCase c{"evaluate_ivc_pop32", an.sta().netlist().name(), 0, 0, false};
  opt::MlvSearchParams p;
  p.population = 32;
  p.max_rounds = 8;
  opt::IvcResult serial, parallel;
  p.n_threads = 1;
  c.serial_ms = time_ms([&] { serial = opt::evaluate_ivc(an, leak, p, 16); },
                        1);
  p.n_threads = 8;
  c.parallel_ms = time_ms(
      [&] { parallel = opt::evaluate_ivc(an, leak, p, 16); }, 1);
  c.identical = serial.best_index == parallel.best_index &&
                serial.random_vector_percent == parallel.random_vector_percent &&
                serial.candidates.size() == parallel.candidates.size();
  for (std::size_t i = 0; c.identical && i < serial.candidates.size(); ++i) {
    c.identical =
        serial.candidates[i].vector == parallel.candidates[i].vector &&
        serial.candidates[i].leakage == parallel.candidates[i].leakage &&
        serial.candidates[i].degradation_percent ==
            parallel.candidates[i].degradation_percent;
  }
  return c;
}

void write_bench_variation_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c880 = netlist::iscas85_like("c880");
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(c880, lib, cond);
  const leakage::LeakageAnalyzer leak(c880, lib, 330.0);
  // Fill the lazy table up front so the IVC case's serial leg does not pay
  // for entries its parallel leg then reads for free.
  leak.table().characterize_all();

  std::vector<AgingCase> cases;
  cases.push_back(case_mc_fresh(an));
  cases.push_back(case_mc_aged(an));
  cases.push_back(case_lifetime(an));
  cases.push_back(case_criticality(an));
  cases.push_back(case_evaluate_ivc(an, leak));

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-variation-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AgingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const AgingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, parallel "
              << c.parallel_ms << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_sizing.json.
//
// Three legs of the sizing loop: "serial" is the brute-force oracle
// testsupport::reference_size_for_lifetime (one thread, full delay rebuild
// + full STA per candidate trial), "incremental" is the production loop on
// one thread (patches only the affected delays per trial), "parallel" adds
// 8 worker threads on top.  All three are asserted bit-identical — the
// differential suite's contract, re-checked on every bench run.  A second
// case times the horizon-batched derate table against the naive per-cell
// evaluation.

struct SizingCase {
  std::string name;
  std::string netlist;
  double serial_ms = 0.0;
  double incremental_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

SizingCase case_sizing(const netlist::Netlist& nl, const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();
  const opt::SizingParams base{.spec_margin_percent = 3.0, .size_step = 0.5,
                               .max_moves = 200};

  SizingCase c{"size_for_lifetime_3pct", nl.name(), 0, 0, 0, false};
  opt::SizingResult serial, incremental, parallel;
  opt::SizingParams p = base;
  p.n_threads = 1;
  c.serial_ms = time_ms(
      [&] { serial = testsupport::reference_size_for_lifetime(an, policy, p); });
  c.incremental_ms =
      time_ms([&] { incremental = opt::size_for_lifetime(an, policy, p); });
  p.n_threads = 8;
  c.parallel_ms =
      time_ms([&] { parallel = opt::size_for_lifetime(an, policy, p); });
  c.identical = serial.sizes == incremental.sizes &&
                serial.sizes == parallel.sizes &&
                serial.moves == incremental.moves &&
                serial.moves == parallel.moves &&
                serial.aged_after == incremental.aged_after &&
                serial.aged_after == parallel.aged_after;
  return c;
}

SizingCase case_derate(const netlist::Netlist& nl, const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const std::vector<double> years = {1.0, 2.0, 3.0, 5.0, 7.0, 10.0};

  SizingCase c{"aging_derate_table_6y", nl.name(), 0, 0, 0, false};
  // Seed cost model: a fresh full analyze() per (policy, year) cell.
  std::vector<std::vector<double>> percell(3);
  c.serial_ms = time_ms([&] {
    const std::vector<aging::StandbyPolicy> policies{
        aging::StandbyPolicy::all_stressed(),
        aging::StandbyPolicy::from_vector(
            std::vector<bool>(nl.num_inputs(), false)),
        aging::StandbyPolicy::all_relaxed()};
    for (std::size_t p = 0; p < policies.size(); ++p) {
      percell[p].clear();
      for (double y : years) {
        const aging::DegradationReport rep =
            an.analyze(policies[p], y * kSecondsPerYear);
        percell[p].push_back(rep.aged_delay / rep.fresh_delay);
      }
    }
  });
  report::DerateTable batched_serial, batched;
  c.incremental_ms = time_ms(
      [&] { batched_serial = report::aging_derate_table(an, years, 1); });
  c.parallel_ms =
      time_ms([&] { batched = report::aging_derate_table(an, years, 8); });
  c.identical = batched.factors == percell &&
                batched_serial.factors == percell;
  return c;
}

void write_bench_sizing_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const netlist::Netlist rand_dag = netlist::make_random_dag(
      "rand800", {.n_inputs = 32, .n_outputs = 16, .n_gates = 800,
                  .seed = 3, .locality = 0.75});

  std::vector<SizingCase> cases;
  for (const netlist::Netlist* nl : {&c432, &rand_dag}) {
    cases.push_back(case_sizing(*nl, lib));
    cases.push_back(case_derate(*nl, lib));
  }

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-sizing-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SizingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"incremental_ms\": " << c.incremental_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const SizingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, incremental "
              << c.incremental_ms << " ms, parallel " << c.parallel_ms
              << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_sta.json.
//
// Prices the resident IncrementalSta against the full forward pass it
// replaces, at 10k / 100k / 1M gates. Two operations per netlist:
//  - one edit: a single gate delay changes and the critical delay is
//    re-queried — "full" re-runs StaEngine::analyze over the whole circuit,
//    "incremental" retimes only the dirty fanout cone;
//  - one sizing round: kTrials candidate gates are each trialed (patch the
//    delay, query max_delay, undo) and the best move is committed — the
//    exact access pattern of the slack-aware sizing loop. "full" pays a
//    complete analyze per trial, "incremental" uses checkpoint / rollback.
// Every query answer and the committed pick are asserted bit-identical
// between the two legs — the differential suite's contract, re-checked on
// every bench run. Construction of the IncrementalSta (its one seeding
// pass) is untimed: the resident engine amortizes it across a session.

struct StaCase {
  std::string netlist;
  int gates = 0;
  double full_edit_ms = 0.0;
  double inc_edit_ms = 0.0;
  double full_round_ms = 0.0;
  double inc_round_ms = 0.0;
  int round_trials = 0;
  bool identical = false;
};

StaCase case_incremental_sta(const netlist::Netlist& nl,
                             const tech::Library& lib, int repeats) {
  const sta::StaEngine sta(nl, lib);
  const std::vector<double> base = sta.gate_delays(400.0);
  const int n = nl.num_gates();
  StaCase c;
  c.netlist = nl.name();
  c.gates = n;

  // One edit: bump a mid-circuit gate and re-query the critical delay.
  const int edit_gate = n / 2;
  std::vector<double> edited = base;
  edited[edit_gate] = base[edit_gate] * 1.25;
  sta::TimingResult full_edit;
  c.full_edit_ms = time_ms([&] { full_edit = sta.analyze(edited); }, repeats);

  sta::IncrementalSta inc(sta, base);
  double inc_edit_md = 0.0;
  {
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = Clock::now();
      inc.set_delay(edit_gate, edited[edit_gate]);
      inc_edit_md = inc.max_delay();
      const auto t1 = Clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
      inc.set_delay(edit_gate, base[edit_gate]);  // untimed restore
      (void)inc.max_delay();
    }
    c.inc_edit_ms = best;
  }

  // One sizing round: trial kTrials spread-out candidates (each 20% faster
  // when upsized), commit the best. The full leg restores the patched entry
  // after every trial, so each analyze prices exactly one re-evaluation.
  constexpr int kTrials = 8;
  c.round_trials = kTrials;
  std::vector<int> cands(kTrials);
  for (int i = 0; i < kTrials; ++i) {
    cands[i] = static_cast<int>((static_cast<long long>(i) * 2 + 1) * n /
                                (2 * kTrials));
  }
  int full_pick = -1, inc_pick = -1;
  double full_after = 0.0, inc_after = 0.0;
  std::vector<double> work = base;
  c.full_round_ms = time_ms(
      [&] {
        full_pick = -1;
        double best_md = 1e300;
        for (int i = 0; i < kTrials; ++i) {
          const int g = cands[i];
          work[g] = base[g] * 0.8;
          const double md = sta.analyze(work).max_delay;
          work[g] = base[g];
          if (md < best_md) {
            best_md = md;
            full_pick = i;
          }
        }
        work[cands[full_pick]] = base[cands[full_pick]] * 0.8;
        full_after = sta.analyze(work).max_delay;
        work[cands[full_pick]] = base[cands[full_pick]];  // reset for repeats
      },
      repeats);
  {
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = Clock::now();
      inc_pick = -1;
      double best_md = 1e300;
      for (int i = 0; i < kTrials; ++i) {
        const int g = cands[i];
        inc.checkpoint();
        inc.set_delay(g, base[g] * 0.8);
        const double md = inc.max_delay();
        inc.rollback();
        if (md < best_md) {
          best_md = md;
          inc_pick = i;
        }
      }
      inc.set_delay(cands[inc_pick], base[cands[inc_pick]] * 0.8);
      inc_after = inc.max_delay();
      const auto t1 = Clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
      inc.set_delay(cands[inc_pick], base[cands[inc_pick]]);  // untimed undo
      (void)inc.max_delay();
    }
    c.inc_round_ms = best;
  }

  c.identical = inc_edit_md == full_edit.max_delay &&
                inc_pick == full_pick && inc_after == full_after;
  return c;
}

void write_bench_sta_json(const char* path) {
  const tech::Library lib;
  struct Scale {
    const char* name;
    int inputs, gates, repeats;
  };
  const Scale kScales[] = {
      {"rand10k", 64, 10000, 3},
      {"rand100k", 128, 100000, 2},
      {"rand1M", 256, 1000000, 1},
  };

  std::vector<StaCase> cases;
  for (const Scale& s : kScales) {
    const netlist::Netlist nl = netlist::make_random_dag(
        s.name, {.n_inputs = s.inputs, .n_outputs = s.inputs / 2,
                 .n_gates = s.gates, .seed = 7, .locality = 0.75});
    cases.push_back(case_incremental_sta(nl, lib, s.repeats));
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-sta-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const StaCase& c = cases[i];
    out << "    {\"netlist\": \"" << c.netlist << "\", \"gates\": " << c.gates
        << ", \"full_edit_ms\": " << c.full_edit_ms
        << ", \"incremental_edit_ms\": " << c.inc_edit_ms
        << ", \"edit_speedup\": " << ratio(c.full_edit_ms, c.inc_edit_ms)
        << ", \"round_trials\": " << c.round_trials
        << ", \"full_round_ms\": " << c.full_round_ms
        << ", \"incremental_round_ms\": " << c.inc_round_ms
        << ", \"round_speedup\": " << ratio(c.full_round_ms, c.inc_round_ms)
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const StaCase& c : cases) {
    std::cout << "  " << c.netlist << " (" << c.gates
              << " gates): edit full " << c.full_edit_ms << " ms vs inc "
              << c.inc_edit_ms << " ms (x"
              << ratio(c.full_edit_ms, c.inc_edit_ms) << "), round full "
              << c.full_round_ms << " ms vs inc " << c.inc_round_ms
              << " ms (x" << ratio(c.full_round_ms, c.inc_round_ms) << ")"
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-timed serial-vs-parallel section -> BENCH_campaign.json.
//
// A 12-task in-memory campaign (3 netlists x 2 conditions x 2 analysis
// kinds) runs end-to-end through the batch scheduler at 1 and 8 threads.
// The JSONL stores are asserted byte-identical before the speedup is
// reported — the campaign-level restatement of the engine contract.

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

campaign::CampaignSpec bench_campaign_spec() {
  campaign::CampaignSpec spec;
  spec.name = "bench";
  spec.netlists = {"c432", "dag:16x300@3", "dag:20x500@5"};
  spec.conditions.resize(2);
  spec.conditions[1].t_standby = 400.0;
  spec.analyses = {"aging", "lifetime"};
  spec.params.sp_vectors = 512;
  spec.params.samples = 60;
  spec.shards = 1;  // this bench byte-compares the two single-file stores
  return spec;
}

void write_bench_campaign_json(const char* path) {
  const std::string serial_store = "BENCH_campaign_serial.jsonl";
  const std::string parallel_store = "BENCH_campaign_parallel.jsonl";
  std::remove(serial_store.c_str());
  std::remove(parallel_store.c_str());

  campaign::CampaignSpec spec = bench_campaign_spec();
  AgingCase c{"campaign_12_tasks", "c432+2xdag", 0, 0, false};
  campaign::RunStats serial_stats, parallel_stats;
  spec.n_threads = 1;
  c.serial_ms = time_ms(
      [&] {
        std::remove(serial_store.c_str());
        serial_stats = campaign::run_campaign(spec, serial_store);
      },
      1);
  spec.n_threads = 8;
  c.parallel_ms = time_ms(
      [&] {
        std::remove(parallel_store.c_str());
        parallel_stats = campaign::run_campaign(spec, parallel_store);
      },
      1);
  c.identical = serial_stats.executed == 12 && parallel_stats.executed == 12 &&
                slurp(serial_store) == slurp(parallel_store);

  const double speedup = c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-campaign-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"tasks\": " << serial_stats.total << ",\n"
      << "  \"cases\": [\n"
      << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
      << "\", \"serial_ms\": " << c.serial_ms
      << ", \"parallel_ms\": " << c.parallel_ms
      << ", \"speedup\": " << speedup
      << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}\n"
      << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n  " << c.name
            << ": serial " << c.serial_ms << " ms, parallel " << c.parallel_ms
            << " ms, speedup " << speedup
            << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_pool.json.
//
// The 12-task campaign scheduler on the 16-shard store at 1 vs 8 threads,
// with every shard file asserted byte-identical: on multicore hardware this
// is where the shared work pool must beat serial.

void write_bench_pool_json(const char* path) {
  const std::string serial_store = "BENCH_pool_serial.jsonl";
  const std::string parallel_store = "BENCH_pool_parallel.jsonl";
  const auto drop_store = [](const std::string& base) {
    std::remove(base.c_str());
    for (int h = 0; h < campaign::ShardedStore::kMaxShards; ++h) {
      std::remove(campaign::ShardedStore::shard_path(base, h).c_str());
    }
  };

  campaign::CampaignSpec spec = bench_campaign_spec();
  spec.shards = 16;
  campaign::RunStats serial_stats, parallel_stats;
  spec.n_threads = 1;
  const double campaign_serial_ms = time_ms(
      [&] {
        drop_store(serial_store);
        serial_stats = campaign::run_campaign(spec, serial_store);
      },
      1);
  spec.n_threads = 8;
  const double campaign_parallel_ms = time_ms(
      [&] {
        drop_store(parallel_store);
        parallel_stats = campaign::run_campaign(spec, parallel_store);
      },
      1);
  bool shards_identical =
      serial_stats.executed == 12 && parallel_stats.executed == 12;
  for (int h = 0; h < campaign::ShardedStore::kMaxShards; ++h) {
    shards_identical =
        shards_identical &&
        slurp(campaign::ShardedStore::shard_path(serial_store, h)) ==
            slurp(campaign::ShardedStore::shard_path(parallel_store, h));
  }

  const double campaign_speedup =
      campaign_parallel_ms > 0.0 ? campaign_serial_ms / campaign_parallel_ms
                                 : 0.0;
  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-pool-v2\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"cases\": [\n"
      << "    {\"name\": \"campaign_sharded_12_tasks\", \"serial_ms\": "
      << campaign_serial_ms << ", \"parallel_ms\": " << campaign_parallel_ms
      << ", \"speedup\": " << campaign_speedup
      << ", \"shards\": " << spec.shards
      << ", \"bit_identical\": " << (shards_identical ? "true" : "false")
      << "}\n"
      << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path
            << "\n  campaign_sharded_12_tasks: serial " << campaign_serial_ms
            << " ms, 8-thread " << campaign_parallel_ms << " ms, speedup x"
            << campaign_speedup
            << (shards_identical ? " (shards bit-identical)" : " (MISMATCH!)")
            << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_multi.json.
//
// The multi-mechanism failure suite and the electrothermal sweep: serial
// (1 thread) vs 8-thread legs of the same per-gate / per-power fan-out,
// asserted bit-identical before the speedup is reported.

bool same_failure_report(const aging::FailureReport& a,
                         const aging::FailureReport& b) {
  if (a.mechanisms.size() != b.mechanisms.size()) return false;
  for (std::size_t i = 0; i < a.mechanisms.size(); ++i) {
    if (a.mechanisms[i].name != b.mechanisms[i].name ||
        a.mechanisms[i].gate_mttf != b.mechanisms[i].gate_mttf ||
        a.mechanisms[i].system_mttf != b.mechanisms[i].system_mttf) {
      return false;
    }
  }
  return a.lambda == b.lambda && a.system_mttf == b.system_mttf &&
         a.failure_curve == b.failure_curve;
}

AgingCase case_failure_suite(const netlist::Netlist& nl,
                             const tech::Library& lib) {
  aging::AgingConditions cond;
  cond.sp_vectors = 1024;
  const aging::AgingAnalyzer an(nl, lib, cond);
  const auto policy = aging::StandbyPolicy::all_stressed();

  AgingCase c{"failure_suite_40pt", nl.name(), 0, 0, false};
  aging::FailureParams p;
  aging::FailureReport serial, parallel;
  p.n_threads = 1;
  c.serial_ms = time_ms([&] { serial = aging::analyze_failure(an, policy, p); });
  p.n_threads = 8;
  c.parallel_ms =
      time_ms([&] { parallel = aging::analyze_failure(an, policy, p); });
  c.identical = same_failure_report(serial, parallel);
  return c;
}

AgingCase case_thermal_sweep(const netlist::Netlist& nl,
                             const tech::Library& lib) {
  const thermal::RcThermalModel model;
  const std::vector<bool> standby(nl.num_inputs(), false);
  std::vector<double> powers;
  for (int i = 0; i < 16; ++i) powers.push_back(20.0 + 6.0 * i);
  const thermal::ElectrothermalParams params{.replication = 1e5};

  AgingCase c{"thermal_sweep_16pt", nl.name(), 0, 0, false};
  std::vector<thermal::OperatingPoint> serial, parallel;
  // Each leg gets a library of its own, so both start from an empty
  // leakage-table memo; one repeat, since a repeat would find it filled.
  const tech::Library serial_lib(lib.params());
  const tech::Library parallel_lib(lib.params());
  c.serial_ms = time_ms(
      [&] {
        serial = thermal::solve_operating_points(nl, serial_lib, model,
                                                 standby, powers, params, 1);
      },
      1);
  c.parallel_ms = time_ms(
      [&] {
        parallel = thermal::solve_operating_points(
            nl, parallel_lib, model, standby, powers, params, 8);
      },
      1);
  c.identical = serial.size() == parallel.size();
  for (std::size_t i = 0; c.identical && i < serial.size(); ++i) {
    c.identical = serial[i].temperature_k == parallel[i].temperature_k &&
                  serial[i].leakage_w == parallel[i].leakage_w &&
                  serial[i].iterations == parallel[i].iterations &&
                  serial[i].converged == parallel[i].converged;
  }
  return c;
}

void write_bench_multi_json(const char* path) {
  const tech::Library lib;
  const netlist::Netlist c432 = netlist::iscas85_like("c432");
  const netlist::Netlist rand_dag = netlist::make_random_dag(
      "rand800", {.n_inputs = 32, .n_outputs = 16, .n_gates = 800,
                  .seed = 3, .locality = 0.75});

  std::vector<AgingCase> cases;
  for (const netlist::Netlist* nl : {&c432, &rand_dag}) {
    cases.push_back(case_failure_suite(*nl, lib));
  }
  cases.push_back(case_thermal_sweep(c432, lib));

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-multi-v1\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"serial_threads\": 1,\n  \"parallel_threads\": 8,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AgingCase& c = cases[i];
    const double speedup =
        c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"netlist\": \"" << c.netlist
        << "\", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const AgingCase& c : cases) {
    std::cout << "  " << c.name << " [" << c.netlist
              << "]: serial " << c.serial_ms << " ms, parallel "
              << c.parallel_ms << " ms, speedup "
              << (c.parallel_ms > 0.0 ? c.serial_ms / c.parallel_ms : 0.0)
              << (c.identical ? " (bit-identical)" : " (MISMATCH!)") << "\n";
  }
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_registry.json.
//
// Measures what the open AnalysisRegistry costs per task dispatch compared
// with the closed enum switch it replaced. The switch resolved each handler
// at compile time, so its stand-in resolves every Analysis pointer once up
// front; the registry path pays the by-name map lookup plus the virtual call
// on every dispatch, exactly like campaign::execute_task and Task::key do.
// Both sides compute the task fingerprint so the delta is pure dispatch.

void write_bench_registry_json(const char* path) {
  const analysis::AnalysisRegistry& reg = analysis::AnalysisRegistry::global();
  const std::vector<std::string> names = reg.names();
  const analysis::Params params;

  std::vector<const analysis::Analysis*> resolved;
  resolved.reserve(names.size());
  for (const std::string& n : names) resolved.push_back(&reg.at(n));

  constexpr int kIters = 200000;
  std::size_t sink = 0;
  const double switch_ms = time_ms(
      [&] {
        for (int i = 0; i < kIters; ++i) {
          const analysis::Analysis* a = resolved[i % resolved.size()];
          sink += a->fingerprint(params).size();
        }
      },
      1);
  const double registry_ms = time_ms(
      [&] {
        for (int i = 0; i < kIters; ++i) {
          sink += reg.at(names[i % names.size()]).fingerprint(params).size();
        }
      },
      1);
  benchmark::DoNotOptimize(sink);

  const double switch_ns = switch_ms * 1e6 / kIters;
  const double registry_ns = registry_ms * 1e6 / kIters;
  const double ratio = switch_ns > 0.0 ? registry_ns / switch_ns : 0.0;

  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-registry-v1\",\n"
      << "  \"analyses\": " << names.size() << ",\n"
      << "  \"dispatches\": " << kIters << ",\n"
      << "  \"enum_switch_ns\": " << switch_ns << ",\n"
      << "  \"registry_ns\": " << registry_ns << ",\n"
      << "  \"overhead_ratio\": " << ratio << "\n}\n";

  std::cout << "bench_perf_micro: wrote " << path
            << "\n  dispatch+fingerprint: pre-resolved " << switch_ns
            << " ns, registry " << registry_ns << " ns, overhead x" << ratio
            << "\n";
}

// ---------------------------------------------------------------------------
// Self-timed section -> BENCH_query.json.
//
// Prices the sidecar index (campaign/index.h + src/query) against the full
// rescan it replaced: a 12,000-row 16-shard store is written once, then
// three representative queries run both ways — "rescan" loads every row
// through ShardedStore and filters naively; "indexed" opens a StoreView
// (sidecar only) and runs run_query(), which parses just the rows whose
// index entries survive the predicates. Both sides include their open cost,
// since "answer one query against a cold store" is the operation the
// `campaign query` verb performs. Results are cross-checked for equal match
// counts before the speedup is reported.

common::json::Value bench_query_row(int i) {
  static const char* kNetlists[] = {"c432", "c880", "c1908", "c3540"};
  static const char* kAnalyses[] = {"aging", "st", "lifetime"};
  char hash[32];
  std::snprintf(hash, sizeof hash, "%x%015x", i % 16, i);
  common::json::Value row;
  row.set("hash", std::string(hash));
  row.set("campaign", "bench_query");
  row.set("netlist", kNetlists[i % 4]);
  row.set("ras", i % 2 == 0 ? "1:9" : "5:5");
  row.set("t_active", 400.0);
  row.set("t_standby", 300.0 + 10.0 * (i % 11));
  row.set("years", 10.0);
  row.set("analysis", kAnalyses[i % 3]);
  common::json::Value metrics;
  metrics.set("worst_pct", 4.0 + 0.125 * (i % 41));
  metrics.set("fresh_ns", 3.0 + 0.0625 * (i % 17));
  metrics.set("leak_ua", 50.0 + 0.25 * (i % 101));
  row.set("metrics", std::move(metrics));
  return row;
}

void write_bench_query_json(const char* path) {
  constexpr int kRows = 12000;
  const std::string store_path = "BENCH_query_store.jsonl";
  std::remove(store_path.c_str());
  for (int h = 0; h < campaign::ShardedStore::kMaxShards; ++h) {
    const std::string sp = campaign::ShardedStore::shard_path(store_path, h);
    std::remove(sp.c_str());
    std::remove(campaign::index_path(sp).c_str());
  }
  {
    campaign::ShardedStore store(store_path, 16);
    std::vector<common::json::Value> batch;
    batch.reserve(256);
    for (int i = 0; i < kRows; ++i) {
      batch.push_back(bench_query_row(i));
      if (batch.size() == 256) {
        store.append(batch);
        batch.clear();
      }
    }
    if (!batch.empty()) store.append(batch);
  }

  struct QueryCase {
    const char* name;
    const char* text;
    bool (*matches)(const common::json::Value& row);
  };
  const QueryCase kCases[] = {
      // ~1/44 of the store: one netlist under a tight metric range.
      {"selective_filter",
       R"({"where":{"netlist":"c432","worst_pct":{"min":8.0}},)"
       R"("select":["netlist","ras","t_standby","worst_pct"]})",
       [](const common::json::Value& row) {
         return row.at("netlist").as_string() == "c432" &&
                row.at("metrics").at("worst_pct").as_number() >= 8.0;
       }},
      // Pure coordinate aggregation: the indexed side parses zero rows.
      {"count_by_coords",
       R"({"where":{"analysis":"aging"},)"
       R"("agg":{"op":"count","by":["netlist","analysis"]}})",
       [](const common::json::Value& row) {
         return row.at("analysis").as_string() == "aging";
       }},
      // Point lookup by hash.
      {"hash_lookup", R"({"where":{"hash":"b00000000000000b"}})",
       [](const common::json::Value& row) {
         return row.at("hash").as_string() == "b00000000000000b";
       }},
  };

  struct QueryBenchResult {
    const char* name;
    double rescan_ms, cold_ms, warm_ms;
    std::size_t matched, rows_parsed;
    bool identical;
  };
  const query::StoreView shared_view(store_path);  // the serve-mode view
  std::vector<QueryBenchResult> results;
  for (const QueryCase& qc : kCases) {
    const query::Query q =
        query::parse_query(common::json::parse(qc.text));
    std::size_t rescan_matched = 0;
    const double rescan_ms = time_ms([&] {
      // The pre-index answer path: load (= parse) every row, filter in
      // memory.
      const campaign::ShardedStore store(store_path, 1);
      std::size_t n = 0;
      for (const common::json::Value* row : store.all_rows()) {
        if (qc.matches(*row)) ++n;
      }
      rescan_matched = n;
      benchmark::DoNotOptimize(rescan_matched);
    });
    query::QueryResult indexed;
    // Cold: open the view (sidecars only) and answer — the `campaign query`
    // verb. Warm: answer against the already-open view — every request after
    // the first in a `campaign serve` session.
    const double cold_ms = time_ms([&] {
      const query::StoreView view(store_path);
      indexed = query::run_query(view, q, 1);
      benchmark::DoNotOptimize(indexed.rows.size());
    });
    const double warm_ms = time_ms([&] {
      indexed = query::run_query(shared_view, q, 1);
      benchmark::DoNotOptimize(indexed.rows.size());
    });
    results.push_back({qc.name, rescan_ms, cold_ms, warm_ms,
                       indexed.stats.rows_matched, indexed.stats.rows_parsed,
                       indexed.stats.rows_matched == rescan_matched});
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::ofstream out(path);
  out << "{\n  \"schema\": \"nbtisim-bench-query-v1\",\n"
      << "  \"store_rows\": " << kRows << ",\n  \"shards\": 16,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueryBenchResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"rescan_ms\": " << r.rescan_ms
        << ", \"indexed_cold_ms\": " << r.cold_ms
        << ", \"indexed_warm_ms\": " << r.warm_ms
        << ", \"speedup_cold\": " << ratio(r.rescan_ms, r.cold_ms)
        << ", \"speedup_warm\": " << ratio(r.rescan_ms, r.warm_ms)
        << ", \"matched\": " << r.matched
        << ", \"rows_parsed\": " << r.rows_parsed
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::cout << "bench_perf_micro: wrote " << path << "\n";
  for (const QueryBenchResult& r : results) {
    std::cout << "  " << r.name << ": rescan " << r.rescan_ms << " ms, cold "
              << r.cold_ms << " ms (x" << ratio(r.rescan_ms, r.cold_ms)
              << "), warm " << r.warm_ms << " ms (x"
              << ratio(r.rescan_ms, r.warm_ms) << "), " << r.matched
              << " matched, " << r.rows_parsed << " of " << kRows
              << " rows parsed" << (r.identical ? "" : " MISMATCH!") << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --aging-json-only / --sta-json-only: write just that BENCH_*.json and
  // exit — the check.sh pre-merge steps that diff the key sets against
  // tools/golden.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--aging-json-only") {
      write_bench_aging_json("BENCH_aging.json");
      return 0;
    }
    if (std::string_view(argv[i]) == "--sta-json-only") {
      write_bench_sta_json("BENCH_sta.json");
      return 0;
    }
  }
  write_bench_aging_json("BENCH_aging.json");
  write_bench_variation_json("BENCH_variation.json");
  write_bench_sizing_json("BENCH_sizing.json");
  write_bench_sta_json("BENCH_sta.json");
  write_bench_campaign_json("BENCH_campaign.json");
  write_bench_pool_json("BENCH_pool.json");
  write_bench_multi_json("BENCH_multi.json");
  write_bench_registry_json("BENCH_registry.json");
  write_bench_query_json("BENCH_query.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
