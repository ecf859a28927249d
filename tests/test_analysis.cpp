// Tests for the analysis layer (src/analysis/*): registry lookup and error
// behaviour, per-analysis parameter fingerprints (hash sensitivity), the
// ContextPool cache, and the all-analyses campaign determinism contract —
// byte-identical stores for every n_threads, resume after interruption, and
// stale-row accounting instead of silent drops.

#include "analysis/analysis.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/context.h"
#include "campaign/engine.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "report/report.h"

namespace nbtisim::analysis {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(static_cast<bool>(f)) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}

std::string temp_path(const std::string& name) {
  // Process-unique so `ctest -j` sibling test processes don't race on it.
  const std::string path = ::testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

// --------------------------------------------------------------------------
// Registry behaviour.

TEST(AnalysisRegistryTest, GlobalListsAllBuiltinsSorted) {
  const std::vector<std::string> names = AnalysisRegistry::global().names();
  const std::vector<std::string> expected{
      "aging",  "criticality", "derate", "failure", "ivc",     "lifetime",
      "multi",  "pareto",      "sizing", "st",      "thermal"};
  EXPECT_EQ(names, expected);
  // Every listed name resolves, and name() round-trips.
  for (const std::string& n : names) {
    EXPECT_EQ(AnalysisRegistry::global().at(n).name(), n);
  }
}

TEST(AnalysisRegistryTest, UnknownNameThrowsListingKnownNames) {
  const AnalysisRegistry& reg = AnalysisRegistry::global();
  EXPECT_EQ(reg.find("frobnicate"), nullptr);
  try {
    reg.at("frobnicate");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frobnicate"), std::string::npos) << what;
    EXPECT_NE(what.find("aging"), std::string::npos) << what;
    EXPECT_NE(what.find("sizing"), std::string::npos) << what;
  }
}

TEST(AnalysisRegistryTest, DuplicateRegistrationIsRejected) {
  AnalysisRegistry reg;
  reg.add(make_aging_analysis());
  EXPECT_THROW(reg.add(make_aging_analysis()), std::invalid_argument);
  // The first registration survives the failed second one.
  ASSERT_NE(reg.find("aging"), nullptr);
  EXPECT_EQ(reg.names().size(), 1u);
}

// --------------------------------------------------------------------------
// Per-analysis hash sensitivity: a technique knob invalidates that
// technique's rows and nothing else; shared knobs invalidate everything.

std::map<std::string, std::string> all_fingerprints(const Params& p) {
  std::map<std::string, std::string> out;
  const AnalysisRegistry& reg = AnalysisRegistry::global();
  for (const std::string& name : reg.names()) {
    out[name] = reg.at(name).fingerprint(p);
  }
  return out;
}

// Names whose fingerprint changes when `mutate` is applied to default Params.
template <typename Fn>
std::vector<std::string> changed_by(Fn mutate) {
  Params mutated;
  mutate(mutated);
  const auto before = all_fingerprints(Params{});
  const auto after = all_fingerprints(mutated);
  std::vector<std::string> changed;
  for (const auto& [name, fp] : before) {
    if (after.at(name) != fp) changed.push_back(name);
  }
  return changed;
}

TEST(AnalysisFingerprintTest, TechniqueKnobsTouchOnlyTheirOwnHash) {
  using V = std::vector<std::string>;
  EXPECT_EQ(changed_by([](Params& p) { p.sizing_margin = 7.0; }),
            V{"sizing"});
  EXPECT_EQ(changed_by([](Params& p) { p.sizing_max_moves = 99; }),
            V{"sizing"});
  EXPECT_EQ(changed_by([](Params& p) { p.samples = 33; }), V{"lifetime"});
  EXPECT_EQ(changed_by([](Params& p) { p.spec_margin = 8.0; }),
            V{"lifetime"});
  EXPECT_EQ(changed_by([](Params& p) { p.derate_years = {1.0, 4.0}; }),
            V{"derate"});
  EXPECT_EQ(changed_by([](Params& p) { p.pareto_flips = 3; }), V{"pareto"});
  EXPECT_EQ(changed_by([](Params& p) { p.crit_samples = 12; }),
            V{"criticality"});
  EXPECT_EQ(changed_by([](Params& p) { p.st_sigma = 0.07; }), V{"st"});
  EXPECT_EQ(changed_by([](Params& p) { p.population = 16; }), V{"ivc"});
  // clock/pbti knobs feed both wear-out analyses; the rest are exclusive.
  EXPECT_EQ(changed_by([](Params& p) { p.clock_ghz = 2.0; }),
            (V{"failure", "multi"}));
  EXPECT_EQ(changed_by([](Params& p) { p.pbti_ratio = 0.5; }),
            (V{"failure", "multi"}));
  EXPECT_EQ(changed_by([](Params& p) { p.thermal_power = 80.0; }),
            V{"thermal"});
  EXPECT_EQ(changed_by([](Params& p) { p.thermal_replication = 2e5; }),
            V{"thermal"});
  EXPECT_EQ(changed_by([](Params& p) { p.thermal_runaway_k = 900.0; }),
            V{"thermal"});
  EXPECT_EQ(changed_by([](Params& p) { p.fail_dvth = 0.07; }), V{"failure"});
  EXPECT_EQ(changed_by([](Params& p) { p.weibull_beta = 3.0; }),
            V{"failure"});
  EXPECT_EQ(changed_by([](Params& p) { p.fail_points = 16; }), V{"failure"});
  EXPECT_EQ(changed_by([](Params& p) { p.fail_max_years = 50.0; }),
            V{"failure"});
  EXPECT_EQ(changed_by([](Params& p) { p.fail_curve_years = {1.0, 3.0}; }),
            V{"failure"});
  // Unset by default, so its token leaves every pre-existing hash alone.
  EXPECT_EQ(changed_by([](Params& p) { p.standby = "mlv"; }),
            (V{"failure", "multi", "thermal"}));
}

TEST(AnalysisFingerprintTest, SharedKnobsTouchEveryHashExceptThermal) {
  // The thermal fixpoint consumes no Monte-Carlo state — its standby
  // leakage vector is a deterministic logic evaluation — so sp_vectors and
  // seed changes must leave its store rows valid.
  std::vector<std::string> expected = AnalysisRegistry::global().names();
  std::erase(expected, "thermal");
  EXPECT_EQ(changed_by([](Params& p) { p.sp_vectors = 2048; }), expected);
  EXPECT_EQ(changed_by([](Params& p) { p.seed = 11; }), expected);
}

TEST(AnalysisFingerprintTest, CampaignHashesChangeOnlyForTheAffectedAnalysis) {
  const char* text = R"({
    "name": "hashes",
    "netlists": ["dag:8x40@3"],
    "analyses": ["aging", "sizing", "lifetime", "derate"]
  })";
  campaign::CampaignSpec spec =
      campaign::spec_from_json(common::json::parse(text));
  const std::vector<campaign::Task> before = campaign::expand(spec);
  spec.params.sizing_margin = 9.0;
  const std::vector<campaign::Task> after = campaign::expand(spec);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i].analysis == "sizing") {
      EXPECT_NE(after[i].hash, before[i].hash);
    } else {
      EXPECT_EQ(after[i].hash, before[i].hash) << before[i].analysis;
    }
  }
}

// --------------------------------------------------------------------------
// ContextPool caching: one AgingAnalyzer per (netlist, condition), one
// netlist per spec string, shared across conditions.

TEST(EvalContextTest, PoolCachesPerCellState) {
  Params p;
  p.sp_vectors = 256;
  ContextPool pool(p);
  const Condition cond;
  EvalContext a = pool.context("dag:8x40@3", cond);
  EvalContext b = pool.context("dag:8x40@3", cond);
  EXPECT_EQ(&a.netlist(), &b.netlist());
  EXPECT_EQ(&a.aging(), &b.aging());

  Condition hot = cond;
  hot.t_standby = 400.0;
  EvalContext c = pool.context("dag:8x40@3", hot);
  EXPECT_EQ(&c.netlist(), &a.netlist());  // netlist shared across conditions
  EXPECT_NE(&c.aging(), &a.aging());      // analyzer is per condition
  EXPECT_NE(&c.standby_leakage(), &a.standby_leakage());  // per T_standby
}

// --------------------------------------------------------------------------
// The acceptance campaign: one spec listing all eleven analyses runs,
// resumes after interruption, and its store is byte-identical for every
// n_threads. Kept on one tiny generated netlist so the whole thing stays
// CI-cheap.

constexpr int kAllAnalyses = 11;

campaign::CampaignSpec all_analyses_spec() {
  const char* text = R"({
    "name": "all_analyses",
    "netlists": ["dag:8x40@3"],
    "conditions": [
      {"ras": "1:9", "t_active": 400, "t_standby": 330, "years": 10}
    ],
    "analyses": ["aging", "criticality", "derate", "failure", "ivc",
                 "lifetime", "multi", "pareto", "sizing", "st", "thermal"],
    "params": {"sp_vectors": 256, "samples": 10, "population": 8,
               "max_rounds": 2, "sizing_margin": 3.0, "sizing_max_moves": 40,
               "derate_years": [2, 5], "pareto_samples": 8,
               "pareto_rounds": 1, "pareto_flips": 2, "crit_samples": 30,
               "fail_points": 12, "fail_curve_years": [5, 20]},
    "n_threads": 1,
    "shards": 1
  })";
  return campaign::spec_from_json(common::json::parse(text));
}

TEST(AnalysisCampaignTest, BitIdenticalAcrossThreadCountsForAllAnalyses) {
  campaign::CampaignSpec spec = all_analyses_spec();
  const std::string p1 = temp_path("all_t1.jsonl");
  const campaign::RunStats s1 = campaign::run_campaign(spec, p1);
  ASSERT_EQ(s1.total, kAllAnalyses);
  ASSERT_EQ(s1.executed, kAllAnalyses);

  spec.n_threads = 4;
  const std::string p4 = temp_path("all_t4.jsonl");
  const campaign::RunStats s4 = campaign::run_campaign(spec, p4);
  ASSERT_EQ(s4.executed, kAllAnalyses);

  const std::string bytes = read_file(p1);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(p4));

  // Interrupt: drop the final row (incl. newline); the resumed parallel run
  // re-executes exactly that task and restores the byte-identical file.
  const std::size_t cut = bytes.find_last_of('\n', bytes.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  const std::string pr = temp_path("all_resume.jsonl");
  write_text(pr, bytes.substr(0, cut + 1));
  const campaign::RunStats rs = campaign::run_campaign(spec, pr);
  EXPECT_EQ(rs.skipped, kAllAnalyses - 1);
  EXPECT_EQ(rs.executed, 1);
  EXPECT_EQ(read_file(pr), bytes);

  // Summaries of the serial and parallel stores agree byte for byte, cover
  // every analysis row, and report nothing stale.
  campaign::SummaryStats sum1, sum4;
  const report::Table t1 = campaign::summarize(spec, p1, &sum1);
  const report::Table t4 = campaign::summarize(spec, p4, &sum4);
  EXPECT_EQ(report::to_csv(t1), report::to_csv(t4));
  EXPECT_EQ(t1.rows.size(), static_cast<std::size_t>(kAllAnalyses));
  EXPECT_EQ(sum1.stored, kAllAnalyses);
  EXPECT_EQ(sum1.summarized, kAllAnalyses);
  EXPECT_EQ(sum1.stale, 0);
  EXPECT_EQ(sum4.stale, 0);
}

TEST(AnalysisCampaignTest, BitIdenticalShardedStoresForNewAnalyses) {
  // The ported/new analyses on their own, sharded, at n_threads 1 vs 4:
  // every shard file must agree byte for byte (the acceptance criterion for
  // the failure-suite PR).
  const char* text = R"({
    "name": "new3",
    "netlists": ["dag:8x40@3"],
    "conditions": [
      {"ras": "1:9", "t_active": 400, "t_standby": 330, "years": 10},
      {"ras": "5:5", "t_active": 400, "t_standby": 330, "years": 10}
    ],
    "analyses": ["multi", "thermal", "failure"],
    "params": {"sp_vectors": 256, "fail_points": 12,
               "fail_curve_years": [5, 20]},
    "n_threads": 1,
    "shards": 4
  })";
  campaign::CampaignSpec spec =
      campaign::spec_from_json(common::json::parse(text));
  const std::string p1 = temp_path("new3_t1.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, p1).executed, 6);
  spec.n_threads = 4;
  const std::string p4 = temp_path("new3_t4.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, p4).executed, 6);

  // A shard file exists only when a task hash lands in it, so presence
  // itself must match between the two runs.
  int shards_with_rows = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const std::string s1 = campaign::ShardedStore::shard_path(p1, shard);
    const std::string s4 = campaign::ShardedStore::shard_path(p4, shard);
    std::ifstream f1(s1), f4(s4);
    ASSERT_EQ(static_cast<bool>(f1), static_cast<bool>(f4)) << s1;
    if (!f1) continue;
    EXPECT_EQ(read_file(s1), read_file(s4)) << s1;
    ++shards_with_rows;
  }
  EXPECT_GT(shards_with_rows, 0);

  // The summarize table carries the failure curve, not just scalars.
  campaign::SummaryStats sum;
  const report::Table t = campaign::summarize(spec, p1, &sum);
  EXPECT_EQ(sum.summarized, 6);
  const auto& h = t.headers;
  EXPECT_NE(std::find(h.begin(), h.end(), "system_mttf_years"), h.end());
  EXPECT_NE(std::find(h.begin(), h.end(), "fail_at_y5"), h.end());
  EXPECT_NE(std::find(h.begin(), h.end(), "fail_at_y20"), h.end());
  EXPECT_NE(std::find(h.begin(), h.end(), "temp_k"), h.end());
  EXPECT_NE(std::find(h.begin(), h.end(), "multi_pct"), h.end());
}

TEST(AnalysisCampaignTest, StaleRowsAreCountedNotSilentlyDropped) {
  const char* text = R"({
    "name": "stale",
    "netlists": ["dag:8x40@3"],
    "analyses": ["aging"],
    "params": {"sp_vectors": 256},
    "n_threads": 1,
    "shards": 1
  })";
  campaign::CampaignSpec spec =
      campaign::spec_from_json(common::json::parse(text));
  const std::string path = temp_path("stale.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, path).executed, 1);

  // A shared-knob change invalidates the stored row: the re-run reports it
  // stale (and re-executes the task), and summarize accounts for it.
  spec.params.sp_vectors = 320;
  std::ostringstream progress;
  const campaign::RunStats stats =
      campaign::run_campaign(spec, path, &progress);
  EXPECT_EQ(stats.executed, 1);
  EXPECT_EQ(stats.stale, 1);
  EXPECT_NE(progress.str().find("1 stale store row"), std::string::npos)
      << progress.str();

  campaign::SummaryStats sum;
  const report::Table t = campaign::summarize(spec, path, &sum);
  EXPECT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(sum.stored, 2);
  EXPECT_EQ(sum.summarized, 1);
  EXPECT_EQ(sum.stale, 1);
}

}  // namespace
}  // namespace nbtisim::analysis
