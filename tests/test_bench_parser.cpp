// The .bench / .v readers against their oracle and under mutation.
//
// Differential tests hold the one-pass interning parse_bench to the
// line-at-a-time reference parser (support/reference.h): same node order,
// names, gates and outputs for every accepted text, and the same exception
// type and message for every rejected one.  Mutation tests run a seeded,
// in-tree mutation harness over the built-in and generated corpora —
// truncation, byte flips, token insertion, line splices, duplicated and
// dropped definitions, very wide fanins — and require a typed
// std::invalid_argument / std::runtime_error or a valid netlist, never a
// crash, another exception type or a hang.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/bench_io.h"
#include "netlist/generators.h"
#include "netlist/verilog_io.h"
#include "support/reference.h"

namespace nbtisim::netlist {
namespace {

/// Empty when \p a and \p b are the same netlist: name, nets in id order,
/// inputs, outputs and gates; otherwise the first difference.
std::string netlist_diff(const Netlist& a, const Netlist& b) {
  if (a.name() != b.name()) return "name " + a.name() + " vs " + b.name();
  if (a.num_nodes() != b.num_nodes()) {
    return "nodes " + std::to_string(a.num_nodes()) + " vs " +
           std::to_string(b.num_nodes());
  }
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    if (a.node_name(n) != b.node_name(n)) {
      return "node " + std::to_string(n) + ": " + a.node_name(n) + " vs " +
             b.node_name(n);
    }
  }
  if (!std::ranges::equal(a.inputs(), b.inputs())) return "inputs";
  if (!std::ranges::equal(a.outputs(), b.outputs())) return "outputs";
  if (a.num_gates() != b.num_gates()) return "gate count";
  for (int g = 0; g < a.num_gates(); ++g) {
    const Gate& x = a.gate(g);
    const Gate& y = b.gate(g);
    if (x.fn != y.fn || x.output != y.output || x.fanins != y.fanins) {
      return "gate " + std::to_string(g) + " ('" + a.node_name(x.output) +
             "')";
    }
  }
  return "";
}

/// What one parse produced: a netlist, or the exception's type and text.
struct Outcome {
  std::optional<Netlist> netlist;
  std::string error_type;  ///< empty on success
  std::string message;
};

template <typename Parse>
Outcome outcome_of(Parse&& parse) {
  try {
    return {parse(), "", ""};
  } catch (const std::invalid_argument& e) {
    return {std::nullopt, "invalid_argument", e.what()};
  } catch (const std::runtime_error& e) {
    return {std::nullopt, "runtime_error", e.what()};
  } catch (const std::exception& e) {
    return {std::nullopt, std::string("untyped ") + typeid(e).name(), e.what()};
  }
}

/// Empty when the outcomes agree.
std::string outcome_diff(const Outcome& got, const Outcome& want) {
  if (got.netlist && want.netlist) {
    return netlist_diff(*got.netlist, *want.netlist);
  }
  if (got.error_type != want.error_type || got.message != want.message) {
    const auto describe = [](const Outcome& o) {
      return o.netlist ? std::string("accepted")
                       : o.error_type + ": " + o.message;
    };
    return describe(got) + " | reference " + describe(want);
  }
  return "";
}

bool typed(const Outcome& o) {
  return o.netlist || o.error_type == "invalid_argument" ||
         o.error_type == "runtime_error";
}

/// The one deliberate divergence from the reference: a name that matches a
/// decomposition helper net (`<net>_t<k>`) is not a declared net, so the
/// production parser reports it undriven even where the reference found
/// the helper through Netlist::has_node.
bool helper_net_divergence(const Outcome& got) {
  if (got.netlist || got.message.find("never driven") == std::string::npos) {
    return false;
  }
  const std::size_t open = got.message.find('\'');
  const std::size_t close = got.message.find('\'', open + 1);
  const std::string_view name =
      std::string_view(got.message).substr(open + 1, close - open - 1);
  const std::size_t t = name.rfind("_t");
  return t != std::string_view::npos && t + 2 < name.size() &&
         std::all_of(name.begin() + static_cast<long>(t) + 2, name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

void expect_same_as_reference(std::string_view text, const std::string& name,
                              const BenchOptions& options) {
  const Outcome got =
      outcome_of([&] { return parse_bench(text, name, options); });
  const Outcome want = outcome_of(
      [&] { return testsupport::reference_parse_bench(text, name, options); });
  EXPECT_EQ(outcome_diff(got, want), "") << "cut_dffs=" << options.cut_dffs;
}

// ------------------------------------------------------------- corpora

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// \p text with its definition lines in a seeded random order (INPUT and
/// OUTPUT lines keep their places): the parser must order them itself.
std::string shuffle_definitions(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> lines = split_lines(text);
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find('=') != std::string::npos) slots.push_back(i);
  }
  std::vector<std::string> defs;
  for (std::size_t i : slots) defs.push_back(lines[i]);
  std::mt19937_64 rng(seed);
  std::shuffle(defs.begin(), defs.end(), rng);
  for (std::size_t k = 0; k < slots.size(); ++k) lines[slots[k]] = defs[k];
  return join_lines(lines);
}

/// Gates of every function at widths the library cannot map directly (wide
/// AND/NAND/OR/NOR trees, multi-input XOR/XNOR chains), mixed-case gate
/// names, comments, CRLF line ends and a trailing comma in one fanin list.
std::string wide_gate_text(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string text = "# wide gates\r\n";
  constexpr int kInputs = 40;
  for (int i = 0; i < kInputs; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
  }
  const char* fns[] = {"AND", "nand", "Or", "NOR", "XOR", "xnor", "BUFF",
                       "NOT"};
  int out = 0;
  for (const char* fn : fns) {
    const bool unary = std::string_view(fn) == "BUFF" ||
                       std::string_view(fn) == "NOT";
    for (int width : {1, 2, 3, 4, 5, 9, 17, 33}) {
      if (unary != (width == 1)) continue;
      std::string args;
      for (int k = 0; k < width; ++k) {
        if (k) args += ", ";
        args += "i" + std::to_string(rng() % kInputs);
      }
      // A comma right before ')' ends the list.
      const std::string close = width == 9 ? ",)" : " )";
      const std::string net = "w" + std::to_string(out++);
      text += "OUTPUT(" + net + ")\n" + net + " = " + fn + "( " + args +
              close + "  # " + std::to_string(width) + "-wide\r\n";
    }
  }
  return text;
}

/// An ISCAS89-style circuit: DFF loops, a DFF fed by a primary input and a
/// DFF whose Q also drives an output.
constexpr const char* kSequential = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(s1)
s0 = DFF(n1)
s1 = dff(n2)
s2 = DFF(a)
n1 = NAND(a, s1, s2)
n2 = NOR(b, s0)
y = XOR(n1, n2)
)";

struct CorpusText {
  std::string name;
  std::string text;
};

/// Small members of every corpus family, sized for many mutations.
std::vector<CorpusText> bench_corpus() {
  std::vector<CorpusText> corpus;
  for (const char* c : {"c432", "c499", "c880", "c1355", "c1908"}) {
    corpus.push_back({c, write_bench(iscas85_like(c))});
  }
  corpus.push_back({"mult4", write_bench(make_multiplier("mult4", 4))});
  corpus.push_back({"alu8", write_bench(make_alu("alu8", 8))});
  for (std::uint64_t seed : {3u, 4u}) {
    corpus.push_back(
        {"dag", write_bench(make_random_dag(
                    "dag", {.n_inputs = 12, .n_outputs = 6, .n_gates = 150,
                            .seed = seed}))});
  }
  corpus.push_back({"wide", wide_gate_text(9)});
  corpus.push_back({"seq", kSequential});
  return corpus;
}

// ------------------------------------------------------------- mutation

/// Seeded structural and byte-level mutations of netlist texts.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// One to three mutations of \p text; \p donors supplies spliced lines.
  std::string mutate(std::string text, const std::vector<CorpusText>& donors) {
    const int ops = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < ops; ++k) text = apply(std::move(text), donors);
    return text;
  }

 private:
  std::size_t pick(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::string apply(std::string text, const std::vector<CorpusText>& donors) {
    static constexpr std::string_view kTokens[] = {
        "(",         ")",          ",",      "=",
        "#",         "\n",         "\r",     " ",
        "INPUT(",    "OUTPUT(",    "DFF(",   "NAND(",
        "XOR(",      "BUFF(",      "FROB(",  "= AND()",
        ",,",        "_t0",        "input ", "wire ",
        "[3:0] ",    "[70000:0]",  ";",      "endmodule",
        "/*",        "*/",         "//",     "module m (",
        "nand g (",  "[99999999999999999999:0]"};
    std::vector<std::string> lines = split_lines(text);
    switch (pick(9)) {
      case 0:  // truncate
        text.resize(pick(text.size() + 1));
        return text;
      case 1: {  // flip bytes
        const int n = 1 + static_cast<int>(pick(8));
        for (int k = 0; k < n && !text.empty(); ++k) {
          text[pick(text.size())] = static_cast<char>(rng_() & 0xff);
        }
        return text;
      }
      case 2: {  // insert a token
        const std::string_view tok = kTokens[pick(std::size(kTokens))];
        text.insert(pick(text.size() + 1), tok);
        return text;
      }
      case 3: {  // splice a run of lines from a donor
        const std::vector<std::string> donor =
            split_lines(donors[pick(donors.size())].text);
        const std::size_t from = pick(donor.size());
        const std::size_t len = 1 + pick(8);
        const std::size_t at = pick(lines.size() + 1);
        lines.insert(lines.begin() + static_cast<long>(at),
                     donor.begin() + static_cast<long>(from),
                     donor.begin() +
                         static_cast<long>(std::min(donor.size(), from + len)));
        return join_lines(lines);
      }
      case 4:  // duplicate a line
        if (!lines.empty()) {
          const std::string line = lines[pick(lines.size())];
          const std::size_t at = pick(lines.size() + 1);
          lines.insert(lines.begin() + static_cast<long>(at), line);
        }
        return join_lines(lines);
      case 5:  // drop a line
        if (!lines.empty()) {
          lines.erase(lines.begin() + static_cast<long>(pick(lines.size())));
        }
        return join_lines(lines);
      case 6:  // swap two lines
        if (!lines.empty()) {
          std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
        }
        return join_lines(lines);
      case 7: {  // a very wide fanin: repeat one argument list many times
        for (int tries = 0; tries < 8 && !lines.empty(); ++tries) {
          std::string& line = lines[pick(lines.size())];
          const std::size_t open = line.find('(');
          const std::size_t close = line.rfind(')');
          if (open == std::string::npos || close == std::string::npos ||
              close <= open + 1) {
            continue;
          }
          const std::string args = line.substr(open + 1, close - open - 1);
          std::string wide = args;
          const int copies = 2 + static_cast<int>(pick(600));
          for (int c = 1; c < copies; ++c) wide += ", " + args;
          line = line.substr(0, open + 1) + wide + line.substr(close);
          break;
        }
        return join_lines(lines);
      }
      default: {  // retype a gate
        static constexpr std::string_view kFns[] = {
            "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF",
            "DFF", "and", "not", "buf", "xor"};
        for (int tries = 0; tries < 8 && !lines.empty(); ++tries) {
          std::string& line = lines[pick(lines.size())];
          const std::size_t eq = line.find('=');
          const std::size_t open = line.find('(');
          if (eq == std::string::npos || open == std::string::npos ||
              open < eq) {
            continue;
          }
          line = line.substr(0, eq + 1) + " " +
                 std::string(kFns[pick(std::size(kFns))]) + line.substr(open);
          break;
        }
        return join_lines(lines);
      }
    }
  }

  std::mt19937_64 rng_;
};

// ------------------------------------------------- differential: accepted

TEST(BenchParserDifferentialTest, BuiltinCircuitsMatchReference) {
  for (std::string_view c : iscas85_names()) {
    SCOPED_TRACE(std::string(c));
    const std::string text = write_bench(iscas85_like(std::string(c)));
    for (bool cut : {false, true}) {
      expect_same_as_reference(text, std::string(c), {.cut_dffs = cut});
    }
    expect_same_as_reference(shuffle_definitions(text, 7), std::string(c), {});
  }
}

TEST(BenchParserDifferentialTest, GeneratedCircuitsMatchReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const int gates = 50 * static_cast<int>(seed * seed);
    const std::string dag = write_bench(make_random_dag(
        "dag", {.n_inputs = 8 + 4 * static_cast<int>(seed),
                .n_outputs = 6, .n_gates = gates, .seed = seed,
                .locality = 0.75}));
    expect_same_as_reference(dag, "dag", {});
    expect_same_as_reference(shuffle_definitions(dag, seed), "dag",
                             {.cut_dffs = true});
  }
  for (int bits : {2, 4, 8}) {
    const std::string mult = write_bench(make_multiplier("mult", bits));
    expect_same_as_reference(mult, "mult", {});
    expect_same_as_reference(shuffle_definitions(mult, 11), "mult", {});
  }
  for (int width : {2, 8, 16}) {
    const std::string alu = write_bench(make_alu("alu", width));
    expect_same_as_reference(alu, "alu", {});
    expect_same_as_reference(shuffle_definitions(alu, 12), "alu", {});
  }
}

TEST(BenchParserDifferentialTest, WideGatesAndDffsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::string wide = wide_gate_text(seed);
    expect_same_as_reference(wide, "wide", {});
    expect_same_as_reference(shuffle_definitions(wide, seed), "wide", {});
  }
  for (bool cut : {false, true}) {
    expect_same_as_reference(kSequential, "seq", {.cut_dffs = cut});
    expect_same_as_reference(shuffle_definitions(kSequential, 5), "seq",
                             {.cut_dffs = cut});
  }
  // Degenerate but valid texts: empty, comments only, no final newline.
  for (std::string_view text :
       {"", "\n\n", "# only a comment", "INPUT(a)\nOUTPUT(a)",
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)"}) {
    expect_same_as_reference(text, "tiny", {});
  }
}

TEST(BenchParserDifferentialTest, VerilogRoundTripsMatchReference) {
  std::vector<Netlist> circuits;
  for (const char* c : {"c432", "c880", "c1908"}) {
    circuits.push_back(iscas85_like(c));
  }
  circuits.push_back(make_multiplier("mult4", 4));
  circuits.push_back(make_alu("alu8", 8));
  circuits.push_back(parse_bench(wide_gate_text(3), "wide"));
  for (const Netlist& nl : circuits) {
    SCOPED_TRACE(nl.name());
    const std::string v = write_verilog(nl);
    const VerilogAsBench vb = transcode_verilog(v);
    const Outcome got = outcome_of([&] { return parse_verilog(v); });
    const Outcome want = outcome_of([&] {
      return testsupport::reference_parse_bench(vb.bench, vb.module_name);
    });
    EXPECT_EQ(outcome_diff(got, want), "");
    ASSERT_TRUE(got.netlist.has_value());
    EXPECT_EQ(got.netlist->num_gates(), nl.num_gates());
  }
}

// ------------------------------------------------- differential: rejected

TEST(BenchParserDifferentialTest, RejectedInputsMatchReference) {
  const std::string head = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n";
  const std::vector<std::string> bad = {
      "INPUT a\n",
      "OUTPUT(y\n",
      "input )a(\n",
      "INPUT (a)\n",  // the keyword is only recognized right before '('
      head + "y NAND(a, b)\n",
      head + " = NAND(a, b)\n",
      head + "y = NAND a, b\n",
      head + "y = NAND(a, )\n",
      head + "y = NAND(,a)\n",
      head + "y = NAND()\n",
      head + "y = NAND( )\n",
      head + "y = FROB(a)\n",
      head + "y = AND(a, ghost)\n",
      "INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n",
      "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n",
      "INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\n",
      "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUFF(a)\n",
      "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n",
      "INPUT()\nOUTPUT(y)\ny = NOT(a)\n",
      "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n",
      head + "y = NOT(a, b)\n",
      head + "y = BUFF(a, b, a, b, a)\n",
      head + "y = XOR(a)\n",
      "INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n",
      "INPUT(a)\nOUTPUT(q)\nq = DFF()\n",
      "INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n",
      "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\nq = NOT(a)\n",
      "INPUT(q)\nOUTPUT(q)\nq = DFF(q)\n",
  };
  for (const std::string& text : bad) {
    SCOPED_TRACE(text);
    for (bool cut : {false, true}) {
      const Outcome got = outcome_of(
          [&] { return parse_bench(text, "bad", {.cut_dffs = cut}); });
      EXPECT_FALSE(got.netlist.has_value());
      expect_same_as_reference(text, "bad", {.cut_dffs = cut});
    }
  }
}

TEST(BenchParserDifferentialTest, MutatedTextsMatchReference) {
  const std::vector<CorpusText> corpus = bench_corpus();
  Mutator mutator(20261020);
  int compared = 0;
  int diverged = 0;
  for (int round = 0; round < 12; ++round) {
    for (const CorpusText& c : corpus) {
      const std::string text = mutator.mutate(c.text, corpus);
      const BenchOptions options{.cut_dffs = round % 2 == 1};
      const Outcome got =
          outcome_of([&] { return parse_bench(text, c.name, options); });
      const Outcome want = outcome_of([&] {
        return testsupport::reference_parse_bench(text, c.name, options);
      });
      const std::string diff = outcome_diff(got, want);
      if (!diff.empty() && helper_net_divergence(got)) {
        ++diverged;
        continue;
      }
      EXPECT_EQ(diff, "") << c.name << " round " << round;
      ++compared;
    }
  }
  EXPECT_GT(compared, 100);
  EXPECT_LE(diverged, compared / 20);
}

// ------------------------------------------------------------- mutation

TEST(BenchMutationTest, MutatedBenchTextsFailTypedOrParse) {
  const std::vector<CorpusText> corpus = bench_corpus();
  Mutator mutator(17);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 40; ++round) {
    for (const CorpusText& c : corpus) {
      const std::string text = mutator.mutate(c.text, corpus);
      for (bool cut : {false, true}) {
        const Outcome o = outcome_of(
            [&] { return parse_bench(text, c.name, {.cut_dffs = cut}); });
        ASSERT_TRUE(typed(o)) << c.name << " round " << round << ": "
                              << o.error_type << ": " << o.message;
        if (!o.netlist) {
          ++rejected;
          continue;
        }
        ++accepted;
        // What was accepted is a well-formed netlist that survives a round
        // trip through the writer.
        EXPECT_NO_THROW(o.netlist->validate_topological());
        const Netlist again = parse_bench(write_bench(*o.netlist), c.name);
        EXPECT_EQ(again.num_gates(), o.netlist->num_gates());
        EXPECT_EQ(again.num_outputs(), o.netlist->num_outputs());
      }
    }
  }
  // The harness must reach both sides of the contract.
  EXPECT_GT(accepted, 20);
  EXPECT_GT(rejected, 100);
}

TEST(BenchMutationTest, VeryWideFaninsDecompose) {
  for (int width : {64, 1000, 5000}) {
    for (const char* fn : {"NAND", "NOR", "XNOR", "AND"}) {
      std::string text = "OUTPUT(y)\n";
      std::string args;
      for (int i = 0; i < width; ++i) {
        text += "INPUT(i" + std::to_string(i) + ")\n";
        args += (i ? ",i" : "i") + std::to_string(i % (width / 2 + 1));
      }
      text += std::string("y = ") + fn + "(" + args + ")\n";
      const Netlist nl = parse_bench(text, "wide");
      for (const Gate& g : nl.gates()) ASSERT_LE(g.fanins.size(), 4u);
      EXPECT_EQ(nl.node_name(nl.outputs()[0]), "y");
    }
  }
}

TEST(VerilogMutationTest, MutatedVerilogTextsFailTypedOrParse) {
  std::vector<CorpusText> corpus;
  for (const char* c : {"c432", "c880"}) {
    corpus.push_back({c, write_verilog(iscas85_like(c))});
  }
  corpus.push_back({"mult4", write_verilog(make_multiplier("mult4", 4))});
  corpus.push_back({"bus", R"(// buses and comments
module bus (a, b, y);
  input [3:0] a;
  input b;
  output [1:0] y;
  wire w; /* block
  comment */
  and g0 (w, a[0], a[1], a[2], a[3], b);
  xor (y[0], w, a[2]);
  not g2 (y[1], w);
endmodule
)"});
  Mutator mutator(31);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 60; ++round) {
    for (const CorpusText& c : corpus) {
      const std::string text = mutator.mutate(c.text, corpus);
      const Outcome o = outcome_of([&] { return parse_verilog(text, c.name); });
      ASSERT_TRUE(typed(o)) << c.name << " round " << round << ": "
                            << o.error_type << ": " << o.message;
      (o.netlist ? accepted : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 5);
  EXPECT_GT(rejected, 50);
}

TEST(VerilogMutationTest, OversizedRangesAreRejectedByName) {
  const auto message_for = [](const std::string& decl) -> std::string {
    try {
      parse_verilog("module m (a, y);\n  " + decl +
                    "\n  output y;\n  buf (y, a);\nendmodule\n");
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_NE(message_for("input [70000:0] a;").find("wider than 65536 bits"),
            std::string::npos);
  EXPECT_NE(message_for("input [0:9223372036854775807] a;").find("wider than"),
            std::string::npos);
  EXPECT_NE(message_for("input [99999999999999999999:0] a;")
                .find("malformed range in input"),
            std::string::npos);
  EXPECT_NE(message_for("input [x:0] a;").find("malformed range in input"),
            std::string::npos);
  // A range at the limit still expands (a[0] .. a[65535]); `a` itself is
  // then undriven.
  EXPECT_NE(message_for("input [65535:0] a;").find("'a'"), std::string::npos);
}

}  // namespace
}  // namespace nbtisim::netlist
