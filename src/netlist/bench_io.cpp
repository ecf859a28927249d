#include "netlist/bench_io.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace nbtisim::netlist {
namespace {

// The "C"-locale isspace set.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

char ascii_upper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

/// Case-insensitive equality against an upper-case keyword.
bool is_keyword(std::string_view s, std::string_view upper_word) {
  if (s.size() != upper_word.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (ascii_upper(s[i]) != upper_word[i]) return false;
  }
  return true;
}

std::string at_line(int line_no) {
  return "bench line " + std::to_string(line_no) + ": ";
}

tech::GateFn fn_from_name(std::string_view raw, int line_no) {
  using tech::GateFn;
  if (is_keyword(raw, "AND")) return GateFn::And;
  if (is_keyword(raw, "NAND")) return GateFn::Nand;
  if (is_keyword(raw, "OR")) return GateFn::Or;
  if (is_keyword(raw, "NOR")) return GateFn::Nor;
  if (is_keyword(raw, "XOR")) return GateFn::Xor;
  if (is_keyword(raw, "XNOR")) return GateFn::Xnor;
  if (is_keyword(raw, "NOT") || is_keyword(raw, "INV")) return GateFn::Not;
  if (is_keyword(raw, "BUF") || is_keyword(raw, "BUFF")) return GateFn::Buf;
  if (is_keyword(raw, "DFF")) {
    throw std::invalid_argument(
        at_line(line_no) +
        "DFF found; pass BenchOptions{.cut_dffs = true} to cut sequential "
        "elements");
  }
  throw std::invalid_argument(at_line(line_no) + "unknown gate type '" +
                              std::string(raw) + "'");
}

/// One gate definition; its fanin symbols are the slice [ins_begin,
/// ins_end) of the parser's flat fanin array.
struct GateDef {
  int out;
  tech::GateFn fn;
  int line_no;
  int ins_begin;
  int ins_end;
};

/// Net names interned to dense symbol ids.  Keys view the parsed text, so
/// each name is hashed once per occurrence and copied only when the netlist
/// creates its net.
class Symbols {
 public:
  explicit Symbols(std::size_t text_size) { ids_.reserve(text_size / 32); }

  int intern(std::string_view name) {
    const auto [it, inserted] =
        ids_.try_emplace(name, static_cast<int>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }
  std::string_view name(int sym) const { return names_[sym]; }
  int size() const { return static_cast<int>(names_.size()); }

 private:
  std::unordered_map<std::string_view, int> ids_;
  std::vector<std::string_view> names_;
};

}  // namespace

Netlist parse_bench(std::string_view text, std::string name,
                    const BenchOptions& options) {
  Symbols syms(text.size());
  std::vector<int> inputs;   // symbols, in declaration order (DFF Qs too)
  std::vector<int> outputs;  // symbols
  std::vector<std::pair<int, int>> dffs;  // (q, d) symbols
  std::vector<GateDef> defs;
  std::vector<int> fanin_syms;
  std::vector<int> def_of;  // symbol -> defs index, or -1

  int line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    const std::string_view t = trim(line);
    if (t.empty()) continue;

    const std::size_t t_open = t.find('(');
    const std::string_view head = t.substr(0, t_open);
    const bool is_input = is_keyword(head, "INPUT");
    if (is_input || is_keyword(head, "OUTPUT")) {
      const std::size_t close = t.rfind(')');
      if (t_open == std::string_view::npos ||
          close == std::string_view::npos || close < t_open) {
        throw std::invalid_argument(at_line(line_no) + "malformed " +
                                    (is_input ? "INPUT" : "OUTPUT"));
      }
      const int sym =
          syms.intern(trim(t.substr(t_open + 1, close - t_open - 1)));
      (is_input ? inputs : outputs).push_back(sym);
      continue;
    }

    const std::size_t eq = t.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(at_line(line_no) +
                                  "expected 'name = GATE(...)'");
    }
    const std::string_view out = trim(t.substr(0, eq));
    const std::string_view rhs = trim(t.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (out.empty() || open == std::string_view::npos ||
        close == std::string_view::npos || close < open) {
      throw std::invalid_argument(at_line(line_no) +
                                  "malformed gate definition");
    }
    const std::string_view fn_name = trim(rhs.substr(0, open));
    const std::string_view args = rhs.substr(open + 1, close - open - 1);
    if (options.cut_dffs && is_keyword(fn_name, "DFF")) {
      const std::string_view d = trim(args);
      if (d.empty() || d.find(',') != std::string_view::npos) {
        throw std::invalid_argument(at_line(line_no) +
                                    "DFF must have exactly one input");
      }
      const int q = syms.intern(out);
      dffs.emplace_back(q, syms.intern(d));
      inputs.push_back(q);  // Q becomes a pseudo primary input
      continue;
    }
    GateDef def{syms.intern(out), fn_from_name(fn_name, line_no), line_no,
                static_cast<int>(fanin_syms.size()), 0};
    // Comma-separated fanins; a trailing comma ends the list.
    for (std::size_t a = 0; a < args.size();) {
      std::size_t comma = args.find(',', a);
      if (comma == std::string_view::npos) comma = args.size();
      const std::string_view arg = trim(args.substr(a, comma - a));
      if (arg.empty()) {
        throw std::invalid_argument(at_line(line_no) + "empty fanin");
      }
      fanin_syms.push_back(syms.intern(arg));
      a = comma + 1;
    }
    def.ins_end = static_cast<int>(fanin_syms.size());
    if (def.ins_end == def.ins_begin) {
      throw std::invalid_argument(at_line(line_no) + "gate with no fanins");
    }
    if (static_cast<int>(def_of.size()) < syms.size()) {
      def_of.resize(syms.size(), -1);
    }
    if (def_of[def.out] >= 0) {
      throw std::invalid_argument(at_line(line_no) + "net '" +
                                  std::string(out) + "' driven twice");
    }
    def_of[def.out] = static_cast<int>(defs.size());
    defs.push_back(def);
  }
  def_of.resize(syms.size(), -1);

  Netlist nl(std::move(name));
  nl.reserve(syms.size(), static_cast<int>(defs.size()));
  std::vector<NodeId> node_of(syms.size(), -1);  // symbol -> net once built
  for (int sym : inputs) {
    node_of[sym] = nl.add_input(std::string(syms.name(sym)));
  }

  // Topological instantiation by iterative DFS over definitions.  A fanin
  // resolves only to a declared net — an input, a DFF Q or a definition —
  // never to a decomposition helper net of an earlier wide gate.
  enum class Mark : unsigned char { White, Grey, Black };
  std::vector<Mark> mark(defs.size(), Mark::White);
  std::vector<std::pair<int, int>> stack;  // (def, next fanin slot)
  std::vector<NodeId> fanins;

  auto instantiate = [&](int root) {
    stack.assign(1, {root, defs[root].ins_begin});
    while (!stack.empty()) {
      auto& [d, next_in] = stack.back();
      const GateDef& def = defs[d];
      if (mark[d] == Mark::Black) {
        stack.pop_back();
        continue;
      }
      mark[d] = Mark::Grey;
      bool descended = false;
      while (next_in < def.ins_end) {
        const int sym = fanin_syms[next_in];
        ++next_in;
        if (node_of[sym] >= 0) continue;
        const int dep = def_of[sym];
        if (dep < 0) {
          throw std::invalid_argument(
              "bench: net '" + std::string(syms.name(sym)) + "' used at line " +
              std::to_string(def.line_no) + " is never driven");
        }
        if (mark[dep] == Mark::Grey) {
          throw std::invalid_argument("bench: combinational cycle through '" +
                                      std::string(syms.name(sym)) + "'");
        }
        if (mark[dep] == Mark::White) {
          stack.emplace_back(dep, defs[dep].ins_begin);
          descended = true;
          break;
        }
      }
      if (descended) continue;
      // All fanins available: build this gate.
      fanins.clear();
      for (int i = def.ins_begin; i < def.ins_end; ++i) {
        fanins.push_back(node_of[fanin_syms[i]]);
      }
      std::string out_name(syms.name(def.out));
      if (fanins.size() <= 4 && !(fanins.size() > 2 &&
                                  (def.fn == tech::GateFn::Xor ||
                                   def.fn == tech::GateFn::Xnor))) {
        node_of[def.out] = nl.add_gate(def.fn, fanins, std::move(out_name));
      } else {
        // The tree's helper nets are named after the declared net, which a
        // final BUF then drives.
        const NodeId wide = build_wide_gate(nl, def.fn, fanins, out_name);
        node_of[def.out] =
            nl.add_gate(tech::GateFn::Buf, {wide}, std::move(out_name));
      }
      mark[d] = Mark::Black;
      stack.pop_back();
    }
  };

  for (int d = 0; d < static_cast<int>(defs.size()); ++d) {
    if (mark[d] == Mark::White) instantiate(d);
  }

  for (int sym : outputs) {
    if (node_of[sym] < 0) {
      throw std::invalid_argument("bench: OUTPUT('" +
                                  std::string(syms.name(sym)) +
                                  "') is never driven");
    }
    nl.mark_output(node_of[sym]);
  }
  // DFF D pins become pseudo primary outputs (the combinational cut).
  for (const auto& [q, d] : dffs) {
    if (node_of[d] < 0) {
      throw std::invalid_argument("bench: DFF input '" +
                                  std::string(syms.name(d)) +
                                  "' is never driven");
    }
    nl.mark_output(node_of[d]);
  }
  // The parser emits definitions in dependency order, but the downstream
  // engines silently miscompute on any violation — check, don't trust.
  nl.validate_topological();
  return nl;
}

std::string read_text_file(const std::string& path, std::string_view who) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error(std::string(who) + ": cannot open " + path);
  }
  std::string text;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) text.reserve(size);  // one allocation for a regular file
  char chunk[1 << 16];
  while (f.read(chunk, sizeof chunk) || f.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(f.gcount()));
  }
  return text;
}

Netlist load_bench(const std::string& path) {
  std::string circuit_name = path;
  const std::size_t slash = circuit_name.find_last_of('/');
  if (slash != std::string::npos) circuit_name.erase(0, slash + 1);
  const std::size_t dot = circuit_name.find_last_of('.');
  if (dot != std::string::npos) circuit_name.erase(dot);
  return parse_bench(read_text_file(path, "load_bench"), circuit_name);
}

std::string write_bench(const Netlist& nl) {
  std::ostringstream out;
  out << "# " << nl.name() << " — written by nbtisim\n";
  for (NodeId pi : nl.inputs()) out << "INPUT(" << nl.node_name(pi) << ")\n";
  for (NodeId po : nl.outputs()) out << "OUTPUT(" << nl.node_name(po) << ")\n";
  for (const Gate& g : nl.gates()) {
    std::string fn(tech::gate_fn_name(g.fn));
    for (char& c : fn) c = ascii_upper(c);
    if (fn == "BUF") fn = "BUFF";
    out << nl.node_name(g.output) << " = " << fn << "(";
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) out << ", ";
      out << nl.node_name(g.fanins[i]);
    }
    out << ")\n";
  }
  return out.str();
}

}  // namespace nbtisim::netlist
