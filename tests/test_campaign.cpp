// Tests for the campaign engine (src/campaign/*): spec parsing, grid
// expansion and hashing, the resumable JSONL result store, parallel
// execution bit-identity, kill-resume behaviour, and summarize.

#include "campaign/engine.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/context.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "report/report.h"

namespace nbtisim::campaign {
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
  // gtest_discover_tests runs every TEST_F as its own process, and each
  // process's SetUpTestSuite rebuilds the fixture store — so under
  // `ctest -j` sibling processes would race on a shared filename unless
  // the path is process-unique.
  const std::string path = ::testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

// A 2 netlists x 2 conditions x 2 analyses grid on tiny generated circuits:
// 8 tasks, every analysis kind cheap enough for CI.
CampaignSpec tiny_spec() {
  const char* text = R"({
    "name": "tiny",
    "netlists": ["dag:8x40@3", "dag:10x60@5"],
    "conditions": [
      {"ras": "1:9", "t_active": 400, "t_standby": 330, "years": 10},
      {"ras": "1:9", "t_active": 400, "t_standby": 400, "years": 10}
    ],
    "analyses": ["aging", "lifetime"],
    "params": {"sp_vectors": 256, "samples": 20, "seed": 7},
    "n_threads": 1,
    "shards": 1
  })";
  return spec_from_json(common::json::parse(text));
}

// --------------------------------------------------------------------------
// Spec parsing and expansion.

TEST(CampaignSpecTest, ParsesFullSpec) {
  const CampaignSpec spec = tiny_spec();
  EXPECT_EQ(spec.name, "tiny");
  ASSERT_EQ(spec.netlists.size(), 2u);
  ASSERT_EQ(spec.conditions.size(), 2u);
  ASSERT_EQ(spec.analyses.size(), 2u);
  EXPECT_EQ(spec.params.sp_vectors, 256);
  EXPECT_EQ(spec.params.samples, 20);
  EXPECT_DOUBLE_EQ(spec.conditions[1].t_standby, 400.0);
  EXPECT_EQ(spec.analyses[0], "aging");
}

TEST(CampaignSpecTest, DefaultsApply) {
  const CampaignSpec spec = spec_from_json(common::json::parse(
      R"({"netlists": ["c432"], "analyses": ["aging"]})"));
  EXPECT_EQ(spec.name, "campaign");
  ASSERT_EQ(spec.conditions.size(), 1u);  // default 1:9 @ 400/330 K, 10 y
  EXPECT_DOUBLE_EQ(spec.conditions[0].ras_standby, 9.0);
  EXPECT_EQ(spec.params.sp_vectors, 1024);
}

TEST(CampaignSpecTest, RejectsBadSpecs) {
  using common::json::parse;
  EXPECT_THROW(spec_from_json(parse(R"({"analyses": ["aging"]})")),
               std::runtime_error);  // missing netlists
  EXPECT_THROW(spec_from_json(parse(
                   R"({"netlists": ["c432"], "analyses": ["frobnicate"]})")),
               std::invalid_argument);  // unknown analysis
  EXPECT_THROW(spec_from_json(parse(
                   R"({"netlists": [], "analyses": ["aging"]})")),
               std::invalid_argument);  // empty axis
  EXPECT_THROW(
      spec_from_json(parse(
          R"({"netlists": ["c432"], "analyses": ["aging"],
              "conditions": [{"ras": "ten-to-one"}]})")),
      std::invalid_argument);  // bad ras
  EXPECT_THROW(
      spec_from_json(parse(
          R"({"netlists": ["c432"], "analyses": ["aging"],
              "params": {"sp_vectors": 1}})")),
      std::invalid_argument);  // out-of-range param
  EXPECT_THROW(
      spec_from_json(parse(
          R"({"netlists": ["c432"], "analyses": ["multi"],
              "params": {"standby": "sideways"}})")),
      std::invalid_argument);  // unknown standby state
}

// The error a spec fails with, or "no exception".
std::string spec_error(const std::string& text) {
  try {
    spec_from_json(common::json::parse(text));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

TEST(CampaignSpecTest, RejectsUnknownKeysByName) {
  // A typo, or an option the engine no longer has, must not silently run
  // with the default value.
  EXPECT_NE(spec_error(R"({"netlists": ["c432"], "analyses": ["aging"],
                        "params": {"sp_vector": 256}})")
                .find("\"sp_vector\""),
            std::string::npos);
  EXPECT_NE(spec_error(R"({"netlists": ["c432"], "analyses": ["lifetime"],
                        "params": {"samples": 20, "spec_margn": 4}})")
                .find("\"spec_margn\""),
            std::string::npos);
  EXPECT_NE(spec_error(R"({"netlists": ["c432"], "analyses": ["aging"],
                        "conditions": [{"ras": "1:9", "t_stanby": 400}]})")
                .find("\"t_stanby\""),
            std::string::npos);
  EXPECT_NE(spec_error(R"({"netlists": ["c432"], "analyses": ["aging"],
                        "frobnicate": 3})")
                .find("\"frobnicate\""),
            std::string::npos);
}

TEST(CampaignSpecTest, RejectsNonFiniteConditionValues) {
  using common::json::parse;
  for (const char* cond : {R"({"t_standby": NaN})", R"({"t_active": Infinity})",
                           R"({"years": NaN})", R"({"ras": "nan:9"})",
                           R"({"ras": "1x:9"})", R"({"ras": "1:9s"})",
                           R"({"ras": "1:"})"}) {
    const std::string text =
        std::string(R"({"netlists": ["c432"], "analyses": ["aging"],
                        "conditions": [)") +
        cond + "]}";
    EXPECT_THROW(spec_from_json(parse(text)), std::invalid_argument) << cond;
  }
}

TEST(CampaignSpecTest, RejectsNonFiniteParamsByName) {
  // NaN passes every `<= 0` range check, so finiteness is checked first:
  // {"st_sigma": NaN} must not run and store "st_total_pct":NaN.
  for (const char* param :
       {R"("st_sigma": NaN)", R"("clock_ghz": Infinity)",
        R"("sizing_margin": -Infinity)", R"("samples": NaN)",
        R"("seed": NaN)", R"("thermal_power": NaN)",
        R"("derate_years": [1, NaN])", R"("fail_curve_years": [Infinity])"}) {
    const std::string text =
        std::string(R"({"netlists": ["c432"], "analyses": ["aging"],
                        "params": {)") +
        param + "}}";
    const std::string key(param, std::string_view(param).find(':'));
    EXPECT_NE(spec_error(text).find(key), std::string::npos)
        << param << ": " << spec_error(text);
  }
  EXPECT_NE(spec_error(R"({"netlists": ["c432"], "analyses": ["aging"],
                           "n_threads": NaN})")
                .find("\"n_threads\""),
            std::string::npos);
}

TEST(CampaignSpecTest, ExpandBuildsTheFullGridWithStableHashes) {
  const CampaignSpec spec = tiny_spec();
  const std::vector<Task> grid = expand(spec);
  ASSERT_EQ(grid.size(), 8u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, static_cast<int>(i));
    EXPECT_EQ(grid[i].hash.size(), 16u);
    for (std::size_t j = i + 1; j < grid.size(); ++j) {
      EXPECT_NE(grid[i].hash, grid[j].hash) << i << " vs " << j;
    }
  }
  // Hashes are content hashes: same spec -> same hashes...
  EXPECT_EQ(expand(tiny_spec())[0].hash, grid[0].hash);
  // ...and a shared engine parameter (sp_vectors feeds every analysis's
  // signal stats) changes every hash. Per-analysis knobs touch only their
  // own analysis's hashes — see test_analysis.cpp.
  CampaignSpec changed = tiny_spec();
  changed.params.sp_vectors = 512;
  const std::vector<Task> other = expand(changed);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NE(other[i].hash, grid[i].hash);
  }
}

TEST(CampaignSpecTest, NetlistSpecForms) {
  using analysis::load_netlist_spec;
  EXPECT_EQ(load_netlist_spec("c432", false).name(), "c432");
  const netlist::Netlist dag = load_netlist_spec("dag:8x40@3", false);
  EXPECT_EQ(dag.num_inputs(), 8);
  EXPECT_EQ(dag.name(), "dag_8x40_3");
  EXPECT_THROW(load_netlist_spec("dag:8x40", false), std::invalid_argument);
  EXPECT_THROW(load_netlist_spec("/no/such/file.bench", false),
               std::runtime_error);
}

// --------------------------------------------------------------------------
// Result store.

TEST(ResultStoreTest, LoadsAppendsAndDetectsDuplicates) {
  const std::string path = temp_path("store_basic.jsonl");
  {
    ResultStore store(path);
    EXPECT_EQ(store.size(), 0u);
    std::vector<common::json::Value> rows(1);
    rows[0].set("hash", "abc");
    rows[0].set("x", 1.0);
    store.append(rows);
    EXPECT_TRUE(store.contains("abc"));
    EXPECT_THROW(store.append(rows), std::invalid_argument);
  }
  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.contains("abc"));
  EXPECT_FALSE(reloaded.contains("def"));
}

TEST(ResultStoreTest, DiscardsTruncatedFinalLine) {
  const std::string path = temp_path("store_truncated.jsonl");
  write_text(path,
             "{\"hash\":\"aaa\",\"x\":1}\n"
             "{\"hash\":\"bbb\",\"x\":2}\n"
             "{\"hash\":\"ccc\",\"x\"");  // killed mid-append
  const ResultStore store(path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.contains("bbb"));
  EXPECT_FALSE(store.contains("ccc"));
}

TEST(ResultStoreTest, ThrowsOnNonTrailingCorruption) {
  const std::string path = temp_path("store_corrupt.jsonl");
  write_text(path,
             "{\"hash\":\"aaa\"}\n"
             "not json at all\n"
             "{\"hash\":\"bbb\"}\n");
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

// Regression: append used to insert the row hashes into the in-memory index
// *before* attempting the disk write, so a failed write (ENOSPC, unwritable
// path) poisoned the store — retrying the very same rows then threw a
// spurious "duplicate row hash". The index must only change after the flush
// succeeds.
TEST(ResultStoreTest, FailedAppendLeavesStoreRetryable) {
  const std::string dir = temp_path("store_retry_dir");
  const std::string path = dir + "/store.jsonl";
  ResultStore store(path);  // missing file: empty store, nothing created yet

  std::vector<common::json::Value> rows(2);
  rows[0].set("hash", "aaa");
  rows[0].set("x", 1.0);
  rows[1].set("hash", "bbb");
  rows[1].set("x", 2.0);

  // The parent directory does not exist, so the write itself must fail...
  EXPECT_THROW(store.append(rows), std::runtime_error);
  // ...and must not have half-committed anything in memory.
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.contains("aaa"));

  // After the fault clears, the *same* batch goes through.
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  store.append(rows);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.contains("aaa"));
  EXPECT_TRUE(store.contains("bbb"));

  const ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
}

// --------------------------------------------------------------------------
// Sharded store.

common::json::Value row_with_hash(const std::string& hash) {
  common::json::Value row;
  row.set("hash", hash);
  row.set("x", 1.0);
  return row;
}

TEST(ShardedStoreTest, RoutesRowsByHashPrefix) {
  const std::string path = temp_path("sharded.jsonl");
  ShardedStore store(path, 16);
  EXPECT_EQ(store.shard_of("0abc"), 0);
  EXPECT_EQ(store.shard_of("fabc"), 15);
  EXPECT_EQ(store.shard_of("7abc"), 7);

  std::vector<common::json::Value> rows;
  rows.push_back(row_with_hash("0aaaaaaaaaaaaaaa"));
  rows.push_back(row_with_hash("0bbbbbbbbbbbbbbb"));
  rows.push_back(row_with_hash("faaaaaaaaaaaaaaa"));
  store.append(rows);
  EXPECT_EQ(store.size(), 3u);

  // Rows landed in their prefix shards; nothing at the base path.
  EXPECT_EQ(ShardedStore::shard_path("out/store.jsonl", 0),
            "out/store.0.jsonl");
  EXPECT_EQ(ShardedStore::shard_path("store", 15), "store.f");
  std::ifstream base(path);
  EXPECT_FALSE(static_cast<bool>(base));
  const ResultStore shard0(ShardedStore::shard_path(path, 0));
  EXPECT_EQ(shard0.size(), 2u);
  const ResultStore shard15(ShardedStore::shard_path(path, 15));
  EXPECT_EQ(shard15.size(), 1u);

  // A reopened store sees the union and rejects duplicates anywhere.
  ShardedStore reloaded(path, 16);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_TRUE(reloaded.contains("0bbbbbbbbbbbbbbb"));
  std::vector<common::json::Value> dup;
  dup.push_back(row_with_hash("faaaaaaaaaaaaaaa"));
  EXPECT_THROW(reloaded.append(dup), std::invalid_argument);
}

TEST(ShardedStoreTest, SingleShardIsTheLegacyLayout) {
  const std::string path = temp_path("sharded_legacy.jsonl");
  ShardedStore store(path, 1);
  std::vector<common::json::Value> rows;
  rows.push_back(row_with_hash("0aaaaaaaaaaaaaaa"));
  rows.push_back(row_with_hash("faaaaaaaaaaaaaaa"));
  store.append(rows);
  const ResultStore legacy(path);  // everything is in the base file itself
  EXPECT_EQ(legacy.size(), 2u);
}

TEST(ShardedStoreTest, MergesAcrossLayoutChanges) {
  const std::string path = temp_path("sharded_merge.jsonl");
  {
    ShardedStore wide(path, 16);
    std::vector<common::json::Value> rows;
    rows.push_back(row_with_hash("1aaaaaaaaaaaaaaa"));
    rows.push_back(row_with_hash("eaaaaaaaaaaaaaaa"));
    wide.append(rows);
  }
  {
    // Reopened with 1 shard: both rows from the 16-shard layout are seen,
    // new rows go to the base file.
    ShardedStore narrow(path, 1);
    EXPECT_EQ(narrow.size(), 2u);
    EXPECT_TRUE(narrow.contains("eaaaaaaaaaaaaaaa"));
    std::vector<common::json::Value> rows;
    rows.push_back(row_with_hash("2aaaaaaaaaaaaaaa"));
    narrow.append(rows);
  }
  // And back to 16 shards: base + shard files all merge.
  const ShardedStore again(path, 16);
  EXPECT_EQ(again.size(), 3u);
  EXPECT_TRUE(again.contains("1aaaaaaaaaaaaaaa"));
  EXPECT_TRUE(again.contains("2aaaaaaaaaaaaaaa"));
  EXPECT_TRUE(again.contains("eaaaaaaaaaaaaaaa"));
  EXPECT_TRUE(ShardedStore::exists(path));
}

TEST(ShardedStoreTest, ThrowsOnNonTrailingShardCorruption) {
  const std::string path = temp_path("sharded_corrupt.jsonl");
  {
    ShardedStore store(path, 16);
    std::vector<common::json::Value> rows;
    rows.push_back(row_with_hash("3aaaaaaaaaaaaaaa"));
    rows.push_back(row_with_hash("3bbbbbbbbbbbbbbb"));
    store.append(rows);
  }
  const std::string shard3 = ShardedStore::shard_path(path, 3);
  write_text(shard3,
             "{\"hash\":\"3aaaaaaaaaaaaaaa\",\"x\":1}\n"
             "garbage\n"
             "{\"hash\":\"3bbbbbbbbbbbbbbb\",\"x\":1}\n");
  EXPECT_THROW((ShardedStore{path, 16}), std::runtime_error);
}

TEST(ShardedStoreTest, RejectsBadShardCounts) {
  const std::string path = temp_path("sharded_bad.jsonl");
  EXPECT_THROW((ShardedStore{path, 0}), std::invalid_argument);
  EXPECT_THROW((ShardedStore{path, 3}), std::invalid_argument);
  EXPECT_THROW((ShardedStore{path, 32}), std::invalid_argument);
  EXPECT_FALSE(ShardedStore::exists(path));
}

// --------------------------------------------------------------------------
// End-to-end runs. One fixture runs the tiny campaign once serially and
// shares the file with the assertions below (runs cost a few seconds).

class CampaignRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new CampaignSpec(tiny_spec());
    path_serial_ = temp_path("campaign_serial.jsonl");
    const RunStats stats = run_campaign(*spec_, path_serial_);
    ASSERT_EQ(stats.total, 8);
    ASSERT_EQ(stats.skipped, 0);
    ASSERT_EQ(stats.executed, 8);
  }

  static void TearDownTestSuite() {
    delete spec_;
    spec_ = nullptr;
  }

  static CampaignSpec* spec_;
  static std::string path_serial_;
};

CampaignSpec* CampaignRunTest::spec_ = nullptr;
std::string CampaignRunTest::path_serial_;

TEST_F(CampaignRunTest, StoreHasOneRowPerTaskInGridOrder) {
  const ResultStore store(path_serial_);
  const std::vector<Task> grid = expand(*spec_);
  ASSERT_EQ(store.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(store.rows()[i].at("hash").as_string(), grid[i].hash);
    EXPECT_EQ(store.rows()[i].at("analysis").as_string(), grid[i].analysis);
  }
}

TEST_F(CampaignRunTest, BitIdenticalAcrossThreadCounts) {
  CampaignSpec parallel = *spec_;
  parallel.n_threads = 8;
  const std::string path = temp_path("campaign_parallel.jsonl");
  const RunStats stats = run_campaign(parallel, path);
  EXPECT_EQ(stats.executed, 8);
  EXPECT_EQ(read_file(path), read_file(path_serial_));
}

TEST_F(CampaignRunTest, RerunSkipsEverythingAndLeavesFileUntouched) {
  const std::string before = read_file(path_serial_);
  const RunStats stats = run_campaign(*spec_, path_serial_);
  EXPECT_EQ(stats.total, 8);
  EXPECT_EQ(stats.skipped, 8);
  EXPECT_EQ(stats.executed, 0);
  EXPECT_EQ(read_file(path_serial_), before);
}

TEST_F(CampaignRunTest, ResumeAfterDeletedLastLineReExecutesOnlyThatTask) {
  const std::string full = read_file(path_serial_);
  // Simulate a killed run: drop the final row (incl. its newline).
  const std::size_t cut = full.find_last_of('\n', full.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  const std::string path = temp_path("campaign_resume.jsonl");
  write_text(path, full.substr(0, cut + 1));

  const RunStats stats = run_campaign(*spec_, path);
  EXPECT_EQ(stats.skipped, 7);
  EXPECT_EQ(stats.executed, 1);
  // The missing row is re-appended at the end — which is also its grid
  // position, so the file is byte-identical to the uninterrupted run.
  EXPECT_EQ(read_file(path), full);
}

TEST_F(CampaignRunTest, ResumeAfterTruncatedLastLineRecovers) {
  const std::string full = read_file(path_serial_);
  const std::string path = temp_path("campaign_killed.jsonl");
  write_text(path, full.substr(0, full.size() - 10));  // mid-row kill

  const RunStats stats = run_campaign(*spec_, path);
  EXPECT_EQ(stats.skipped, 7);
  EXPECT_EQ(stats.executed, 1);
  EXPECT_EQ(read_file(path), full);
}

TEST_F(CampaignRunTest, SummarizeBuildsOneRowPerTask) {
  const report::Table t = summarize(*spec_, path_serial_);
  ASSERT_EQ(t.rows.size(), 8u);
  // Grid coordinates + union of aging and lifetime metric names.
  ASSERT_GE(t.headers.size(), 6u);
  EXPECT_EQ(t.headers[0], "netlist");
  EXPECT_EQ(t.headers[5], "analysis");
  const auto has = [&](const std::string& h) {
    return std::find(t.headers.begin(), t.headers.end(), h) != t.headers.end();
  };
  EXPECT_TRUE(has("worst_pct"));
  EXPECT_TRUE(has("median_years"));
  // Aging rows have no lifetime metrics: those cells are empty.
  EXPECT_EQ(t.rows[0][5], "aging");
  bool found_empty = false;
  for (const std::string& cell : t.rows[0]) found_empty |= cell.empty();
  EXPECT_TRUE(found_empty);
  // The table serializes cleanly.
  EXPECT_FALSE(report::to_csv(t).empty());
}

TEST_F(CampaignRunTest, SummarizeOfPartialStoreCoversStoredTasksOnly) {
  const std::string full = read_file(path_serial_);
  const std::size_t cut = full.find_last_of('\n', full.size() - 2);
  const std::string path = temp_path("campaign_partial_sum.jsonl");
  write_text(path, full.substr(0, cut + 1));
  const report::Table t = summarize(*spec_, path);
  EXPECT_EQ(t.rows.size(), 7u);
}

// The IVC and ST kinds run through the same machinery; cover them on one
// small cell so every Analysis enumerator executes in CI.
TEST(CampaignAnalysisTest, IvcAndStKindsExecute) {
  const char* text = R"({
    "name": "kinds",
    "netlists": ["dag:8x40@3"],
    "analyses": ["ivc", "st"],
    "params": {"sp_vectors": 256, "population": 8, "max_rounds": 3},
    "n_threads": 1,
    "shards": 1
  })";
  const CampaignSpec spec = spec_from_json(common::json::parse(text));
  const std::string path = temp_path("campaign_kinds.jsonl");
  const RunStats stats = run_campaign(spec, path);
  EXPECT_EQ(stats.executed, 2);
  const ResultStore store(path);
  ASSERT_EQ(store.size(), 2u);
  const common::json::Value& ivc = store.rows()[0];
  EXPECT_EQ(ivc.at("analysis").as_string(), "ivc");
  EXPECT_GT(ivc.at("metrics").at("worst_pct").as_number(), 0.0);
  EXPECT_GT(ivc.at("metrics").at("n_mlv").as_number(), 0.0);
  const common::json::Value& st = store.rows()[1];
  EXPECT_GT(st.at("metrics").at("wl_nbti_aware").as_number(),
            st.at("metrics").at("wl_base").as_number());
}

// --------------------------------------------------------------------------
// Sharded end-to-end runs. One fixture runs the tiny campaign once with the
// 16-shard layout serially; the assertions compare against it.

class ShardedCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new CampaignSpec(tiny_spec());
    spec_->shards = 16;
    path_ = temp_path("sharded_campaign.jsonl");
    const RunStats stats = run_campaign(*spec_, path_);
    ASSERT_EQ(stats.executed, 8);
  }

  static void TearDownTestSuite() {
    delete spec_;
    spec_ = nullptr;
  }

  // The shard files actually written by the fixture run (8 distinct task
  // hashes rarely cover all 16 nibbles).
  static std::vector<std::string> shard_files() {
    std::vector<std::string> out;
    for (int h = 0; h < ShardedStore::kMaxShards; ++h) {
      const std::string sp = ShardedStore::shard_path(path_, h);
      if (std::ifstream(sp)) out.push_back(sp);
    }
    return out;
  }

  static CampaignSpec* spec_;
  static std::string path_;
};

CampaignSpec* ShardedCampaignTest::spec_ = nullptr;
std::string ShardedCampaignTest::path_;

TEST_F(ShardedCampaignTest, ShardFilesBitIdenticalAcrossThreadCounts) {
  CampaignSpec parallel = *spec_;
  parallel.n_threads = 4;
  const std::string path = temp_path("sharded_campaign_par.jsonl");
  const RunStats stats = run_campaign(parallel, path);
  EXPECT_EQ(stats.executed, 8);

  const std::vector<std::string> serial_shards = shard_files();
  ASSERT_FALSE(serial_shards.empty());
  int compared = 0;
  for (int h = 0; h < ShardedStore::kMaxShards; ++h) {
    const std::string a = ShardedStore::shard_path(path_, h);
    const std::string b = ShardedStore::shard_path(path, h);
    const bool have_a = static_cast<bool>(std::ifstream(a));
    ASSERT_EQ(have_a, static_cast<bool>(std::ifstream(b))) << h;
    if (!have_a) continue;
    EXPECT_EQ(read_file(b), read_file(a)) << "shard " << h;
    ++compared;
  }
  EXPECT_EQ(compared, static_cast<int>(serial_shards.size()));
}

TEST_F(ShardedCampaignTest, ResumeAfterTruncatedShardReExecutesOnlyItsTask) {
  // Copy the fixture's shards, then kill the last row of one shard mid-line.
  const std::string path = temp_path("sharded_campaign_resume.jsonl");
  int victim = -1;
  for (int h = 0; h < ShardedStore::kMaxShards; ++h) {
    const std::string src = ShardedStore::shard_path(path_, h);
    if (!std::ifstream(src)) continue;
    write_text(ShardedStore::shard_path(path, h), read_file(src));
    if (victim < 0) victim = h;
  }
  ASSERT_GE(victim, 0);
  const std::string victim_path = ShardedStore::shard_path(path, victim);
  const std::string victim_full = read_file(victim_path);
  write_text(victim_path, victim_full.substr(0, victim_full.size() - 7));

  const RunStats stats = run_campaign(*spec_, path);
  // Only the task whose row was cut re-runs; it re-appends at the victim
  // shard's tail — its original position.
  EXPECT_EQ(stats.executed, 1);
  EXPECT_EQ(stats.skipped, 7);
  // Every shard file ends up byte-identical to the uninterrupted run.
  for (int h = 0; h < ShardedStore::kMaxShards; ++h) {
    const std::string src = ShardedStore::shard_path(path_, h);
    if (std::ifstream(src)) {
      EXPECT_EQ(read_file(ShardedStore::shard_path(path, h)), read_file(src))
          << "shard " << h;
    }
  }
}

TEST_F(ShardedCampaignTest, SummarizeMatchesSingleFileLayout) {
  // The same campaign through the legacy layout must summarize to the same
  // table, row for row.
  CampaignSpec legacy = *spec_;
  legacy.shards = 1;
  const std::string path = temp_path("sharded_campaign_legacy.jsonl");
  run_campaign(legacy, path);

  SummaryStats sharded_stats, legacy_stats;
  const report::Table sharded = summarize(*spec_, path_, &sharded_stats);
  const report::Table single = summarize(legacy, path, &legacy_stats);
  EXPECT_EQ(report::to_csv(sharded), report::to_csv(single));
  EXPECT_EQ(sharded_stats.summarized, 8);
  EXPECT_EQ(legacy_stats.summarized, 8);
  EXPECT_EQ(sharded_stats.stale, 0);
}

TEST_F(ShardedCampaignTest, ResumesAcrossShardLayoutChange) {
  // Rows written under the 16-shard layout are found when the spec later
  // says 4 shards: nothing re-executes, and summarize still sees all rows.
  CampaignSpec narrower = *spec_;
  narrower.shards = 4;
  const std::string path = temp_path("sharded_campaign_relayout.jsonl");
  for (int h = 0; h < ShardedStore::kMaxShards; ++h) {
    const std::string src = ShardedStore::shard_path(path_, h);
    if (std::ifstream(src)) {
      write_text(ShardedStore::shard_path(path, h), read_file(src));
    }
  }
  const RunStats stats = run_campaign(narrower, path);
  EXPECT_EQ(stats.executed, 0);
  EXPECT_EQ(stats.skipped, 8);
  const report::Table t = summarize(narrower, path);
  EXPECT_EQ(t.rows.size(), 8u);
}

// Two campaigns running at once share the process-wide pool; each must
// still produce the same bytes as its own serial run.
TEST_F(ShardedCampaignTest, ConcurrentCampaignsStayBitIdentical) {
  CampaignSpec a = *spec_;
  a.n_threads = 4;
  CampaignSpec b = tiny_spec();  // legacy layout, different store
  b.n_threads = 4;
  const std::string path_a = temp_path("sharded_campaign_conc_a.jsonl");
  const std::string path_b = temp_path("sharded_campaign_conc_b.jsonl");

  RunStats stats_a, stats_b;
  std::thread ta([&] { stats_a = run_campaign(a, path_a); });
  std::thread tb([&] { stats_b = run_campaign(b, path_b); });
  ta.join();
  tb.join();
  EXPECT_EQ(stats_a.executed, 8);
  EXPECT_EQ(stats_b.executed, 8);

  // Campaign A against the sharded fixture...
  for (int h = 0; h < ShardedStore::kMaxShards; ++h) {
    const std::string src = ShardedStore::shard_path(path_, h);
    if (std::ifstream(src)) {
      EXPECT_EQ(read_file(ShardedStore::shard_path(path_a, h)),
                read_file(src))
          << "shard " << h;
    }
  }
  // ...campaign B against a fresh serial single-file run.
  CampaignSpec b_serial = tiny_spec();
  const std::string path_ref = temp_path("sharded_campaign_conc_ref.jsonl");
  run_campaign(b_serial, path_ref);
  EXPECT_EQ(read_file(path_b), read_file(path_ref));
}

}  // namespace
}  // namespace nbtisim::campaign
