/// \file bench_io.h
/// \brief Reader/writer for the ISCAS85 ".bench" netlist format.
///
/// The paper evaluates on the ISCAS85 benchmark suite, whose canonical
/// distribution format is .bench:
///
///     # comment
///     INPUT(G1)
///     OUTPUT(G22)
///     G10 = NAND(G1, G3)
///
/// Definitions may appear in any order; the parser topologically orders them
/// and reports combinational cycles.  Gates wider than the library's 4-input
/// cells are decomposed into balanced trees (see build_wide_gate).
/// Sequential elements (DFF) are rejected — the paper's flow is purely
/// combinational — unless BenchOptions::cut_dffs cuts them.
///
/// parse_bench is one pass over the text: no stream and no per-line string.
/// Each net name is interned once into a dense symbol id (a hash map keyed
/// on views into the text), definitions store symbol ids, and the
/// dependency-ordered instantiation maps symbols to nets through an array.
/// A name refers only to a declared net — an INPUT, a DFF Q or a definition
/// output — never to a helper net that decomposing a wide gate created.
/// The Verilog reader transcodes to .bench text and parses it here.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.h"

namespace nbtisim::netlist {

/// Sequential-handling options for parse_bench.
struct BenchOptions {
  /// Cut sequential elements: each `q = DFF(d)` makes `q` a pseudo primary
  /// input and `d` a pseudo primary output, turning an ISCAS89-style
  /// sequential netlist into the combinational core the paper's flow
  /// analyzes. When false (default), DFFs are rejected.
  bool cut_dffs = false;
};

/// Parses .bench text.
/// \param text    full file contents
/// \param name    netlist name (e.g. the circuit name)
/// \param options sequential-element handling
/// \throws std::invalid_argument on syntax errors, unknown gate types,
///         undriven signals, or combinational cycles
Netlist parse_bench(std::string_view text, std::string name,
                    const BenchOptions& options = {});

/// Reads a whole file into memory.
/// \throws std::runtime_error "<who>: cannot open <path>" when it cannot be
///         opened
std::string read_text_file(const std::string& path, std::string_view who);

/// Loads a .bench file from disk.
/// \throws std::runtime_error when the file cannot be read, plus everything
///         parse_bench throws
Netlist load_bench(const std::string& path);

/// Serializes a netlist to .bench text (decomposition helper nets included).
std::string write_bench(const Netlist& nl);

}  // namespace nbtisim::netlist
