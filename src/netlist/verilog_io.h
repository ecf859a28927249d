/// \file verilog_io.h
/// \brief Reader/writer for gate-level structural Verilog.
///
/// Supports the classic primitive-gate subset that gate-level benchmark
/// distributions (including ISCAS85 conversions) use:
///
///     module c17 (N1, N2, N3, N6, N7, N22, N23);
///       input N1, N2, N3, N6, N7;
///       output N22, N23;
///       wire N10, N11;
///       nand g0 (N10, N1, N3);   // output first, then inputs
///       not  g1 (N11, N10);
///     endmodule
///
/// Recognized: one module; `input`/`output`/`wire` declarations with
/// optional `[msb:lsb]` ranges (expanded to `name[i]` scalar nets);
/// primitive instantiations of and/nand/or/nor/xor/xnor/not/buf (instance
/// name optional); `//` and `/* */` comments. Gates wider than the library
/// are decomposed as in the .bench reader.
#pragma once

#include <string>
#include <string_view>

#include "netlist/netlist.h"

namespace nbtisim::netlist {

/// Widest `[msb:lsb]` range a declaration may expand to.
inline constexpr long kMaxVerilogBusBits = 1L << 16;

/// The .bench text parse_verilog hands to parse_bench: one INPUT/OUTPUT
/// line per declared scalar net and one definition per primitive, under
/// the module's name (\p fallback_name when the text names none).
struct VerilogAsBench {
  std::string module_name;
  std::string bench;
};

/// Transcodes structural Verilog text to .bench text.
/// \throws std::invalid_argument on syntax errors, unsupported constructs,
///         or a range wider than kMaxVerilogBusBits
VerilogAsBench transcode_verilog(std::string_view text,
                                 std::string fallback_name = "top");

/// Parses structural Verilog text: transcode_verilog, then parse_bench,
/// whose errors gain a "verilog: " prefix.
/// \throws std::invalid_argument on syntax errors, unsupported constructs,
///         undriven nets, or combinational cycles
Netlist parse_verilog(std::string_view text, std::string fallback_name = "top");

/// Loads a structural Verilog file.
/// \throws std::runtime_error when the file cannot be read
Netlist load_verilog(const std::string& path);

/// Serializes a netlist as structural Verilog.
std::string write_verilog(const Netlist& nl);

}  // namespace nbtisim::netlist
