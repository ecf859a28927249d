// Tests for the results-serving subsystem: the sidecar store index
// (src/campaign/index.*), the query engine and StoreView (src/query/query.*),
// and the line-protocol server (src/query/serve.*). The determinism-labeled
// cases prove the three contracts the subsystem ships with: query output is
// byte-identical across shard layouts, byte-identical across thread counts,
// and exactly equal to the naive full-rescan reference.

#include "query/query.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/index.h"
#include "campaign/store.h"
#include "query/serve.h"
#include "support/reference.h"

namespace nbtisim::query {
namespace {

using campaign::IndexEntry;
using campaign::ResultStore;
using campaign::ShardedStore;
using common::json::Value;

std::string temp_path(const std::string& name) {
  // Process-unique: gtest_discover_tests runs each TEST as its own process
  // and ctest -j runs them concurrently.
  const std::string path = ::testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

void remove_store(const std::string& path) {
  std::remove(path.c_str());
  std::remove(campaign::index_path(path).c_str());
  for (int h = 0; h < ShardedStore::kMaxShards; ++h) {
    const std::string sp = ShardedStore::shard_path(path, h);
    std::remove(sp.c_str());
    std::remove(campaign::index_path(sp).c_str());
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(f)) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// A deterministic synthetic campaign row: hashes cover every hex prefix so
// all 16 shards participate, coordinates form a small grid, and metric
// values are reproducible functions of the index. Every third row carries a
// structured payload next to its scalars, and a few metric values are
// non-finite to exercise the aggregation skip rule.
Value synthetic_row(int i) {
  static const char* kNetlists[] = {"c432", "c880", "dag:8x40@3"};
  static const char* kAnalyses[] = {"aging", "st", "failure"};
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016x", 0x10000000u * (i % 16) + i);
  Value row;
  row.set("hash", std::string(hash));
  row.set("campaign", "synthetic");
  row.set("netlist", kNetlists[i % 3]);
  row.set("netlist_spec", kNetlists[i % 3]);
  row.set("ras", i % 2 == 0 ? "1:9" : "5:5");
  row.set("t_active", 400.0);
  row.set("t_standby", i % 4 < 2 ? 330.0 : 400.0);
  row.set("years", 10.0);
  row.set("analysis", kAnalyses[i % 3]);
  Value metrics;
  metrics.set("worst_pct", 4.0 + 0.125 * (i % 37));
  metrics.set("fresh_ns", 3.0 + 0.0625 * (i % 17));
  if (i % 11 == 0) {
    metrics.set("odd_metric",
                i % 22 == 0 ? std::numeric_limits<double>::infinity()
                            : 1.5 * i);
  }
  if (i % 3 == 0) {
    common::json::Array curve;
    for (int k = 0; k < 3; ++k) {
      Value pt;
      pt.set("years", static_cast<double>(k + 1));
      pt.set("p", 0.01 * ((i + k) % 90));
      curve.push_back(pt);
    }
    metrics.set("curve", Value(std::move(curve)));
  }
  row.set("metrics", std::move(metrics));
  return row;
}

/// Writes \p n synthetic rows through a ShardedStore with \p shards shards
/// (in batches, like the engine) and returns the store path.
std::string build_store(const std::string& name, int n, int shards) {
  const std::string path = temp_path(name);
  remove_store(path);
  ShardedStore store(path, shards);
  std::vector<Value> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(synthetic_row(i));
    if (batch.size() == 32) {
      store.append(batch);
      batch.clear();
    }
  }
  store.append(batch);
  return path;
}

// The fixed query set the differential and bit-identity tests all run.
const char* kQueries[] = {
    R"({})",
    R"({"where":{"netlist":"c432"}})",
    R"({"where":{"analysis":["aging","st"],"t_standby":400}})",
    R"({"where":{"worst_pct":{"min":5.0,"max":7.5}}})",
    R"({"where":{"ras":"5:5","worst_pct":{"max":6}},"select":["netlist","ras","analysis","worst_pct"]})",
    R"({"select":["hash","netlist","curve"],"where":{"netlist":"dag:8x40@3"},"limit":7})",
    R"({"agg":{"op":"count","by":["netlist","analysis"]}})",
    R"({"agg":{"op":"mean","by":["netlist"],"metrics":["worst_pct","fresh_ns"]}})",
    R"({"where":{"t_standby":{"min":350}},"agg":{"op":"max","by":["ras"]}})",
    R"({"agg":{"op":"quantile","q":0.25,"by":["analysis"],"metrics":["worst_pct"]}})",
    R"({"agg":{"op":"sum"}})",
    R"({"where":{"odd_metric":{"min":0}},"agg":{"op":"min","by":["netlist"],"metrics":["odd_metric"]}})",
    R"({"where":{"hash":"0000000000000000"}})",
    R"({"where":{"netlist":"nonexistent"},"agg":{"op":"count"}})",
};

// --------------------------------------------------------------------------
// The sidecar index.

TEST(IndexTest, IndexPathInsertsBeforeExtension) {
  EXPECT_EQ(campaign::index_path("store.jsonl"), "store.index.jsonl");
  EXPECT_EQ(campaign::index_path("a/b.c/store.3.jsonl"),
            "a/b.c/store.3.index.jsonl");
  EXPECT_EQ(campaign::index_path("noext"), "noext.index");
}

TEST(IndexTest, AppendBuildsEntriesIncrementally) {
  const std::string path = temp_path("idx_inc.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(1)};
    store.append(rows);
    std::vector<Value> more{synthetic_row(2)};
    store.append(more);
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_FALSE(idx.rebuilt);
  EXPECT_FALSE(idx.caught_up);
  ASSERT_EQ(idx.entries.size(), 3u);
  EXPECT_EQ(idx.entries[0].offset, 0u);
  EXPECT_EQ(idx.entries[0].netlist, "c432");
  EXPECT_EQ(idx.entries[0].analysis, "aging");
  EXPECT_DOUBLE_EQ(idx.entries[1].t_standby, 330.0);
  // Scalar metric names only: row 0 also carries the structured "curve",
  // which must not be listed (predicates on it require a parse).
  EXPECT_EQ(idx.entries[0].metrics,
            (std::vector<std::string>{"worst_pct", "fresh_ns", "odd_metric"}));
  EXPECT_EQ(idx.entries[1].metrics,
            (std::vector<std::string>{"worst_pct", "fresh_ns"}));
  // Extents tile the file: entry k+1 starts right after entry k's newline.
  EXPECT_EQ(idx.entries[1].offset, idx.entries[0].offset +
                                       idx.entries[0].length + 1);
}

TEST(IndexTest, IncrementalSidecarMatchesRebuiltSidecar) {
  const std::string path = temp_path("idx_equal.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows;
    for (int i = 0; i < 9; ++i) rows.push_back(synthetic_row(i));
    store.append(rows);
  }
  const std::string incremental = read_file(campaign::index_path(path));
  std::remove(campaign::index_path(path).c_str());
  // A missing sidecar is an empty-but-valid one: the loader catches up from
  // byte 0 and persists, reproducing the incremental sidecar byte for byte.
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.caught_up);
  EXPECT_EQ(read_file(campaign::index_path(path)), incremental);
}

TEST(IndexTest, MissingSidecarRegenerates) {
  const std::string path = temp_path("idx_regen.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(5)};
    store.append(rows);
  }
  std::remove(campaign::index_path(path).c_str());
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.caught_up);
  ASSERT_EQ(idx.entries.size(), 2u);
  EXPECT_EQ(idx.entries[1].ras, "5:5");
}

TEST(IndexTest, StaleSidecarRebuilds) {
  const std::string path = temp_path("idx_stale.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0), synthetic_row(1)};
    store.append(rows);
  }
  // Clobber the sidecar with entries whose extents cannot match the file.
  {
    std::ofstream side(campaign::index_path(path), std::ios::trunc);
    side << R"({"h":"bogus","o":4,"l":999999})" << "\n";
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.rebuilt);
  ASSERT_EQ(idx.entries.size(), 2u);
  EXPECT_EQ(idx.entries[0].hash, synthetic_row(0).at("hash").as_string());
}

TEST(IndexTest, GapBetweenEntriesTriggersRebuild) {
  const std::string path = temp_path("idx_gap.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows;
    for (int i = 0; i < 3; ++i) rows.push_back(synthetic_row(i));
    store.append(rows);
  }
  // Drop the middle sidecar line: its row now hides in the "gap", which the
  // whitespace check must catch (a naive extent check would not).
  const campaign::StoreIndex before = campaign::load_index(path);
  ASSERT_EQ(before.entries.size(), 3u);
  {
    std::ofstream side(campaign::index_path(path), std::ios::trunc);
    side << campaign::dump_entry(before.entries[0]) << "\n"
         << campaign::dump_entry(before.entries[2]) << "\n";
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_TRUE(idx.rebuilt);
  ASSERT_EQ(idx.entries.size(), 3u);
}

TEST(IndexTest, CatchUpIndexesRowsAppendedWithoutSidecar) {
  const std::string path = temp_path("idx_catchup.jsonl");
  remove_store(path);
  {
    ResultStore store(path);
    std::vector<Value> rows{synthetic_row(0)};
    store.append(rows);
  }
  // Simulate an older binary appending a row without a sidecar entry.
  {
    std::ofstream f(path, std::ios::app);
    f << common::json::dump(synthetic_row(1)) << "\n";
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  EXPECT_FALSE(idx.rebuilt);
  EXPECT_TRUE(idx.caught_up);
  ASSERT_EQ(idx.entries.size(), 2u);
  // The catch-up was persisted: a second load is clean.
  const campaign::StoreIndex again = campaign::load_index(path);
  EXPECT_FALSE(again.rebuilt);
  EXPECT_FALSE(again.caught_up);
  ASSERT_EQ(again.entries.size(), 2u);
}

TEST(IndexTest, TruncatedStoreTailStaysUnindexed) {
  const std::string path = temp_path("idx_tail.jsonl");
  remove_store(path);
  {
    std::ofstream f(path);
    f << common::json::dump(synthetic_row(0)) << "\n"
      << R"({"hash":"deadbeef","netli)";  // killed mid-append
  }
  const campaign::StoreIndex idx = campaign::load_index(path);
  ASSERT_EQ(idx.entries.size(), 1u);
  EXPECT_EQ(idx.entries[0].hash, synthetic_row(0).at("hash").as_string());
}

// --------------------------------------------------------------------------
// ResultStore truncated-tail warning (regression: used to be silent).

TEST(ResultStoreTest, WarnsOnTruncatedTailWithPathAndOffset) {
  const std::string path = temp_path("warn_tail.jsonl");
  remove_store(path);
  const std::string good = common::json::dump(synthetic_row(0)) + "\n";
  {
    std::ofstream f(path);
    f << good << R"({"hash":"deadbeef","netli)";
  }
  std::ostringstream warnings;
  ResultStore store(path, &warnings);
  EXPECT_EQ(store.size(), 1u);
  const std::string msg = warnings.str();
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte " + std::to_string(good.size())),
            std::string::npos)
      << msg;
  // A clean store stays quiet.
  std::ostringstream quiet;
  ResultStore reloaded(path, &quiet);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(quiet.str().empty()) << quiet.str();
}

// --------------------------------------------------------------------------
// Query parsing.

TEST(QueryParseTest, RejectsMalformedQueries) {
  const auto parse = [](const char* text) {
    return parse_query(common::json::parse(text));
  };
  EXPECT_THROW(parse(R"([1,2])"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"frobnicate":1})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":{"between":[1,2]}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":{}}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":[]}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"where":{"x":true}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"agg":{"op":"median"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"agg":{"op":"quantile","q":1.5}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"agg":{"op":"count","by":["worst_pct"]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"limit":-1})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"limit":2.5})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"select":[]})"), std::invalid_argument);
}

TEST(QueryParseTest, AcceptsTheDocumentedForms) {
  const Query q = parse_query(common::json::parse(
      R"({"where":{"netlist":["c432","c880"],"worst_pct":{"min":1},
          "t_standby":330},
          "select":["netlist","worst_pct"],
          "agg":{"op":"quantile","q":0.9,"by":["netlist"]},
          "limit":10})"));
  EXPECT_EQ(q.where.size(), 3u);
  EXPECT_EQ(q.where[0].second.any_of.size(), 2u);
  EXPECT_TRUE(q.where[1].second.has_range);
  EXPECT_TRUE(q.has_agg);
  EXPECT_EQ(q.agg.op, "quantile");
  EXPECT_EQ(q.limit, 10);
}

// --------------------------------------------------------------------------
// Differential: indexed query vs naive full rescan, exact table equality.

TEST(QueryDifferentialTest, MatchesNaiveRescanOnShardedStore) {
  const std::string path = build_store("qdiff16.jsonl", 211, 16);
  const StoreView view(path);
  for (const char* text : kQueries) {
    const common::json::Value qdoc = common::json::parse(text);
    const QueryResult r = run_query(view, parse_query(qdoc), 1);
    const report::Table expect = testsupport::reference_query(path, qdoc);
    EXPECT_EQ(report::to_csv(r.table()), report::to_csv(expect)) << text;
  }
  remove_store(path);
}

TEST(QueryDifferentialTest, MatchesNaiveRescanOnLegacySingleFile) {
  const std::string path = build_store("qdiff1.jsonl", 97, 1);
  const StoreView view(path);
  for (const char* text : kQueries) {
    const common::json::Value qdoc = common::json::parse(text);
    const QueryResult r = run_query(view, parse_query(qdoc), 2);
    const report::Table expect = testsupport::reference_query(path, qdoc);
    EXPECT_EQ(report::to_csv(r.table()), report::to_csv(expect)) << text;
  }
  remove_store(path);
}

// --------------------------------------------------------------------------
// Bit-identity across shard layouts and thread counts.

TEST(QueryTest, BitIdenticalAcrossShardLayouts) {
  const int kRows = 173;
  const std::string p1 = build_store("qlay1.jsonl", kRows, 1);
  const std::string p4 = build_store("qlay4.jsonl", kRows, 4);
  const std::string p16 = build_store("qlay16.jsonl", kRows, 16);
  const StoreView v1(p1), v4(p4), v16(p16);
  ASSERT_EQ(v1.total_rows(), static_cast<std::size_t>(kRows));
  ASSERT_EQ(v16.total_rows(), static_cast<std::size_t>(kRows));
  for (const char* text : kQueries) {
    const Query q = parse_query(common::json::parse(text));
    const QueryResult r1 = run_query(v1, q, 1);
    const QueryResult r4 = run_query(v4, q, 2);
    const QueryResult r16 = run_query(v16, q, 4);
    EXPECT_EQ(r1.to_json(), r4.to_json()) << text;
    EXPECT_EQ(r1.to_json(), r16.to_json()) << text;
    EXPECT_EQ(report::to_markdown(r1.table()),
              report::to_markdown(r16.table()))
        << text;
    EXPECT_EQ(r1.stats.rows_matched, r16.stats.rows_matched) << text;
  }
  remove_store(p1);
  remove_store(p4);
  remove_store(p16);
}

TEST(QueryTest, BitIdenticalAcrossThreadCounts) {
  const std::string path = build_store("qthreads.jsonl", 149, 8);
  const StoreView view(path);
  for (const char* text : kQueries) {
    const Query q = parse_query(common::json::parse(text));
    const std::string baseline = run_query(view, q, 1).to_json();
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(run_query(view, q, threads).to_json(), baseline)
          << text << " threads=" << threads;
    }
  }
  remove_store(path);
}

// --------------------------------------------------------------------------
// Query semantics spot checks (the differential suite proves equivalence;
// these pin down absolute behaviour).

TEST(QueryTest, CountAggregationNeverParsesRows) {
  const std::string path = build_store("qcount.jsonl", 101, 4);
  const StoreView view(path);
  const QueryResult r = run_query(
      view,
      parse_query(common::json::parse(
          R"({"where":{"netlist":"c432"},"agg":{"op":"count","by":["analysis"]}})")),
      2);
  EXPECT_EQ(r.stats.rows_parsed, 0u);
  EXPECT_GT(r.stats.rows_matched, 0u);
  remove_store(path);
}

TEST(QueryTest, MetricPredicateParsesOnlyRowsListingTheMetric) {
  const std::string path = build_store("qprune.jsonl", 110, 4);
  const StoreView view(path);
  // "odd_metric" exists on every 11th row only; the index prunes the rest.
  const QueryResult r = run_query(
      view,
      parse_query(common::json::parse(R"({"where":{"odd_metric":{"min":0}}})")),
      1);
  EXPECT_EQ(r.stats.rows_parsed, 10u);  // rows 0, 11, ..., 99
  // Infinity satisfies the range (non-finite is skipped only by reducers).
  EXPECT_EQ(r.stats.rows_matched, r.stats.rows_parsed);
  remove_store(path);
}

TEST(QueryTest, StructuredPayloadSelectsAsJson) {
  const std::string path = build_store("qcurve.jsonl", 30, 2);
  const StoreView view(path);
  const QueryResult r = run_query(
      view,
      parse_query(common::json::parse(
          R"({"where":{"hash":"0000000000000000"},"select":["curve"]})")),
      1);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_TRUE(r.rows[0][0].is_array());
  EXPECT_EQ(r.rows[0][0].as_array().size(), 3u);
  // And the table cell renders it as compact JSON.
  const report::Table t = r.table();
  EXPECT_EQ(t.rows[0][0].front(), '[');
  remove_store(path);
}

TEST(QueryTest, EmptyStoreYieldsEmptyResult) {
  const std::string path = temp_path("qempty.jsonl");
  remove_store(path);
  const StoreView view(path);
  EXPECT_EQ(view.total_rows(), 0u);
  const QueryResult r =
      run_query(view, parse_query(common::json::parse("{}")), 4);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.to_json(),
            R"({"columns":["netlist","ras","t_active","t_standby","years","analysis"],"rows":[]})");
}

// --------------------------------------------------------------------------
// Serving.

TEST(ServeTest, HandleQueryWrapsResultsAndErrors) {
  const std::string path = build_store("serve_h.jsonl", 40, 4);
  const StoreView view(path);
  const std::string ok = handle_query(
      view, R"({"agg":{"op":"count","by":["netlist"]}})", 1);
  EXPECT_EQ(ok.find(R"({"ok":true,"columns":["netlist","count"],)"), 0u) << ok;
  EXPECT_NE(ok.find(R"("matched":40)"), std::string::npos) << ok;
  const std::string err = handle_query(view, R"({"bogus":1})", 1);
  EXPECT_EQ(err.find(R"({"ok":false,"error":)"), 0u) << err;
  const std::string garbage = handle_query(view, "not json at all", 1);
  EXPECT_EQ(garbage.find(R"({"ok":false)"), 0u) << garbage;
  remove_store(path);
}

TEST(ServeTest, SessionAnswersLineByLine) {
  const std::string path = build_store("serve_s.jsonl", 25, 2);
  const StoreView view(path);
  std::istringstream in(
      "{\"agg\":{\"op\":\"count\"}}\n"
      "\n"
      "{\"where\":{\"netlist\":\"c432\"},\"agg\":{\"op\":\"count\"}}\n");
  std::ostringstream out;
  serve_session(view, in, out, 1);
  std::istringstream lines(out.str());
  std::string line;
  int responses = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find(R"({"ok":true)"), 0u) << line;
    ++responses;
  }
  EXPECT_EQ(responses, 2);  // the blank request line produced no response
  remove_store(path);
}

TEST(ServeTest, SessionSurvivesADeeplyNestedLine) {
  const std::string path = build_store("serve_deep.jsonl", 12, 2);
  const StoreView view(path);
  std::istringstream in(std::string(200000, '[') + "\n" +
                        "{\"agg\":{\"op\":\"count\"}}\n");
  std::ostringstream out;
  serve_session(view, in, out, 1);
  std::istringstream lines(out.str());
  std::string deep, next;
  ASSERT_TRUE(std::getline(lines, deep));
  EXPECT_EQ(deep.find(R"({"ok":false,"error":)"), 0u) << deep;
  ASSERT_TRUE(std::getline(lines, next));
  EXPECT_EQ(next.find(R"({"ok":true)"), 0u) << next;
  EXPECT_NE(next.find(R"("matched":12)"), std::string::npos) << next;
  remove_store(path);
}

TEST(ServeTest, BitIdenticalResponsesAcrossConcurrentSessions) {
  const std::string path = build_store("serve_c.jsonl", 131, 8);
  const StoreView view(path);  // one shared view, many sessions
  std::string request_block;
  for (const char* text : kQueries) {
    request_block += text;
    request_block += '\n';
  }
  const int kSessions = 8;
  std::vector<std::string> outputs(kSessions);
  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      std::istringstream in(request_block);
      std::ostringstream out;
      serve_session(view, in, out, 1 + s % 4);
      outputs[static_cast<std::size_t>(s)] = out.str();
    });
  }
  for (std::thread& t : sessions) t.join();
  for (int s = 1; s < kSessions; ++s) {
    EXPECT_EQ(outputs[static_cast<std::size_t>(s)], outputs[0])
        << "session " << s;
  }
  remove_store(path);
}

TEST(ServeTest, SessionClosesOnAnOverlongLine) {
  // A line past kMaxRequestLine gets one ok:false answer and ends the
  // session: the request after it is never read.  A line of exactly the
  // limit is still answered.
  const std::string path = build_store("serve_long.jsonl", 12, 2);
  const StoreView view(path);
  std::string at_limit = "{\"agg\":{\"op\":\"count\"}}";
  at_limit.resize(kMaxRequestLine, ' ');
  std::istringstream in(at_limit + "\n" +
                        std::string(kMaxRequestLine + 1, 'x') + "\n" +
                        "{\"agg\":{\"op\":\"count\"}}\n");
  std::ostringstream out;
  serve_session(view, in, out, 1);
  std::istringstream lines(out.str());
  std::string first, second, third;
  ASSERT_TRUE(std::getline(lines, first));
  EXPECT_NE(first.find(R"("matched":12)"), std::string::npos) << first;
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_EQ(second.find(R"({"ok":false,"error":"request line longer than)"),
            0u)
      << second;
  EXPECT_FALSE(std::getline(lines, third)) << third;
  remove_store(path);
}

// Plain socket round-trip (deliberately outside the determinism label: the
// protocol logic above already runs under TSan; this checks the TCP plumbing).
TEST(ServeTcpTest, AnswersOverLoopback) {
  const std::string path = build_store("serve_tcp.jsonl", 20, 2);
  const StoreView view(path);
  std::atomic<int> port{0};
  ServeOptions opt;
  opt.port = 0;
  opt.n_threads = 1;
  opt.max_connections = 1;
  opt.bound_port = &port;
  std::thread server([&] { serve_tcp(view, opt, nullptr); });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port.load()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string request = "{\"agg\":{\"op\":\"count\"}}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[1024];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();
  EXPECT_EQ(response.find(R"({"ok":true)"), 0u) << response;
  EXPECT_NE(response.find(R"("matched":20)"), std::string::npos) << response;
  remove_store(path);
}

TEST(ServeTcpTest, ClosesOnAnOverlongLine) {
  // A client that never sends a newline gets ok:false once the line passes
  // kMaxRequestLine, then the server closes the connection.
  const std::string path = build_store("serve_tcp_long.jsonl", 5, 1);
  const StoreView view(path);
  std::atomic<int> port{0};
  ServeOptions opt;
  opt.n_threads = 1;
  opt.max_connections = 1;
  opt.bound_port = &port;
  std::thread server([&] { serve_tcp(view, opt, nullptr); });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 20;  // a server that keeps waiting fails, not hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port.load()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string request(kMaxRequestLine + 1, 'x');
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (w <= 0) break;
    sent += static_cast<std::size_t>(w);
  }
  EXPECT_EQ(sent, request.size());
  std::string response;
  char buf[1024];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      closed = n == 0;
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();
  EXPECT_TRUE(closed);
  EXPECT_EQ(response.find(R"({"ok":false,"error":"request line longer than)"),
            0u)
      << response.substr(0, 200);
  EXPECT_EQ(response.back(), '\n');
  remove_store(path);
}

}  // namespace
}  // namespace nbtisim::query
