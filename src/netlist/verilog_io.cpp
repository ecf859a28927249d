#include "netlist/verilog_io.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "netlist/bench_io.h"

namespace nbtisim::netlist {
namespace {

/// Removes // and /* */ comments.
std::string strip_comments(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size();) {
    if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
    } else if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      const std::size_t end = text.find("*/", i + 2);
      if (end == std::string_view::npos) {
        throw std::invalid_argument("verilog: unterminated block comment");
      }
      i = end + 2;
      out += ' ';
    } else {
      out += text[i++];
    }
  }
  return out;
}

std::vector<std::string> tokenize(std::string_view stmt) {
  std::vector<std::string> tokens;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  };
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    const char c = stmt[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (c == '(' || c == ')' || c == ',' || c == ':') {
      flush();
      tokens.push_back(std::string(1, c));
    } else if (c == '[' || c == ']') {
      // Brackets bind to the preceding identifier (bit-select) when
      // directly attached, otherwise they open a range.
      if (c == '[' && !cur.empty()) {
        cur += c;  // part of a scalar reference like a[3]
      } else if (c == ']' && !cur.empty() &&
                 cur.find('[') != std::string::npos) {
        cur += c;
      } else {
        flush();
        tokens.push_back(std::string(1, c));
      }
    } else {
      cur += c;
    }
  }
  flush();
  return tokens;
}

// A range bound in std::stol's syntax; its errors, overflow included, are
// reported as a malformed range.
long range_bound(const std::string& tok, const std::string& kind) {
  try {
    return std::stol(tok);
  } catch (const std::logic_error&) {
    throw std::invalid_argument("verilog: malformed range in " + kind);
  }
}

bool is_primitive(const std::string& t) {
  return t == "and" || t == "nand" || t == "or" || t == "nor" || t == "xor" ||
         t == "xnor" || t == "not" || t == "buf";
}

}  // namespace

VerilogAsBench transcode_verilog(std::string_view text,
                                 std::string fallback_name) {
  const std::string clean = strip_comments(text);

  // Statement split on ';' (module headers end with ';' too). 'endmodule'
  // has no semicolon; treat it as a terminator token.
  std::vector<std::string> statements;
  std::string cur;
  for (char c : clean) {
    if (c == ';') {
      statements.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  statements.push_back(cur);

  std::string module_name = std::move(fallback_name);
  std::ostringstream bench;
  bool in_module = false;
  bool saw_module = false;

  for (const std::string& stmt : statements) {
    const std::vector<std::string> tok = tokenize(stmt);
    if (tok.empty()) continue;
    std::size_t i = 0;
    // 'endmodule' may be glued to the front of the next statement chunk.
    while (i < tok.size() && tok[i] == "endmodule") {
      in_module = false;
      ++i;
    }
    if (i >= tok.size()) continue;

    if (tok[i] == "module") {
      if (saw_module) {
        throw std::invalid_argument(
            "verilog: multiple modules are not supported");
      }
      if (i + 1 >= tok.size()) {
        throw std::invalid_argument("verilog: module without a name");
      }
      module_name = tok[i + 1];
      in_module = true;
      saw_module = true;
      continue;  // port list carries no direction info; ignore
    }
    if (!in_module) {
      throw std::invalid_argument("verilog: statement outside module: '" +
                                  tok[i] + "'");
    }

    if (tok[i] == "input" || tok[i] == "output" || tok[i] == "wire") {
      const std::string kind = tok[i++];
      // Optional range [msb : lsb].
      long msb = -1, lsb = -1;
      if (i < tok.size() && tok[i] == "[") {
        if (i + 4 >= tok.size() || tok[i + 2] != ":" || tok[i + 4] != "]") {
          throw std::invalid_argument("verilog: malformed range in " + kind);
        }
        msb = range_bound(tok[i + 1], kind);
        lsb = range_bound(tok[i + 3], kind);
        // hi >= lo, so the unsigned difference is exact.
        if (msb >= 0 &&
            static_cast<unsigned long>(std::max(msb, lsb)) -
                    static_cast<unsigned long>(std::min(msb, lsb)) >=
                static_cast<unsigned long>(kMaxVerilogBusBits)) {
          throw std::invalid_argument("verilog: range in " + kind +
                                      " is wider than " +
                                      std::to_string(kMaxVerilogBusBits) +
                                      " bits");
        }
        i += 5;
      }
      for (; i < tok.size(); ++i) {
        if (tok[i] == ",") continue;
        const std::string& name = tok[i];
        auto emit = [&](const std::string& n) {
          if (kind == "input") bench << "INPUT(" << n << ")\n";
          if (kind == "output") bench << "OUTPUT(" << n << ")\n";
          // wires need no declaration in .bench
        };
        if (msb >= 0) {
          const long lo = std::min(msb, lsb);
          const long width = std::max(msb, lsb) - lo;  // checked above
          for (long k = 0; k <= width; ++k) {
            emit(name + "[" + std::to_string(lo + k) + "]");
          }
        } else {
          emit(name);
        }
      }
      continue;
    }

    if (is_primitive(tok[i])) {
      std::string fn = tok[i++];
      std::transform(fn.begin(), fn.end(), fn.begin(), ::toupper);
      if (fn == "BUF") fn = "BUFF";
      // Optional instance name before '('.
      if (i < tok.size() && tok[i] != "(") ++i;
      if (i >= tok.size() || tok[i] != "(") {
        throw std::invalid_argument("verilog: malformed instantiation of " +
                                    fn);
      }
      ++i;
      std::vector<std::string> args;
      for (; i < tok.size() && tok[i] != ")"; ++i) {
        if (tok[i] == ",") continue;
        args.push_back(tok[i]);
      }
      if (i >= tok.size()) {
        throw std::invalid_argument("verilog: unterminated instantiation of " +
                                    fn);
      }
      if (args.size() < 2) {
        throw std::invalid_argument("verilog: primitive needs an output and "
                                    "at least one input");
      }
      bench << args[0] << " = " << fn << "(";
      for (std::size_t a = 1; a < args.size(); ++a) {
        if (a > 1) bench << ", ";
        bench << args[a];
      }
      bench << ")\n";
      continue;
    }

    throw std::invalid_argument("verilog: unsupported construct '" + tok[i] +
                                "'");
  }
  if (!saw_module) {
    throw std::invalid_argument("verilog: no module found");
  }

  return {std::move(module_name), bench.str()};
}

Netlist parse_verilog(std::string_view text, std::string fallback_name) {
  VerilogAsBench vb = transcode_verilog(text, std::move(fallback_name));
  try {
    return parse_bench(vb.bench, std::move(vb.module_name));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("verilog: ") + e.what());
  }
}

Netlist load_verilog(const std::string& path) {
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name.erase(0, slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name.erase(dot);
  return parse_verilog(read_text_file(path, "load_verilog"), name);
}

std::string write_verilog(const Netlist& nl) {
  // Verilog identifiers cannot contain '[' unless escaped; escape any net
  // whose name is not a plain identifier.
  auto ident = [](const std::string& name) {
    const bool plain =
        !name.empty() &&
        (std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_') &&
        std::all_of(name.begin(), name.end(), [](unsigned char c) {
          return std::isalnum(c) || c == '_';
        });
    return plain ? name : "\\" + name + " ";
  };

  std::ostringstream out;
  out << "// " << nl.name() << " — written by nbtisim\n";
  out << "module " << nl.name() << " (";
  bool first = true;
  for (NodeId pi : nl.inputs()) {
    if (!first) out << ", ";
    out << ident(nl.node_name(pi));
    first = false;
  }
  for (NodeId po : nl.outputs()) {
    if (!first) out << ", ";
    out << ident(nl.node_name(po));
    first = false;
  }
  out << ");\n";
  for (NodeId pi : nl.inputs()) {
    out << "  input " << ident(nl.node_name(pi)) << ";\n";
  }
  for (NodeId po : nl.outputs()) {
    out << "  output " << ident(nl.node_name(po)) << ";\n";
  }
  for (const Gate& g : nl.gates()) {
    out << "  " << tech::gate_fn_name(g.fn) << " g" << nl.driver_gate(g.output)
        << " (" << ident(nl.node_name(g.output));
    for (NodeId in : g.fanins) out << ", " << ident(nl.node_name(in));
    out << ");\n";
  }
  out << "endmodule\n";
  return out.str();
}

}  // namespace nbtisim::netlist
