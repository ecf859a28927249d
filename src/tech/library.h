/// \file library.h
/// \brief The 90 nm standard-cell library: cells + electrical characterization.
///
/// Reproduces the paper's experimental substrate: "a standard cell library
/// constructed using the PTM 90-nm bulk CMOS model.  Vdd = 1.0 V,
/// |Vth| = 220 mV" (Section 3).  The library owns the cell set
/// (INV/BUF/NAND/NOR/AND/OR 2-4, XOR2/XNOR2), their transistor sizing, and
/// provides:
///   - per-(cell, input-vector, temperature) leakage — the lookup tables of
///     the paper's Fig. 6 flow,
///   - load-dependent alpha-power delays, optionally with an NBTI threshold
///     shift applied to the PMOS devices,
///   - pin capacitances for load computation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tech/cell.h"
#include "tech/device.h"

namespace nbtisim::tech {

/// Logic function names as used by netlists (.bench gate types).
enum class GateFn : std::uint8_t { Not, Buf, And, Nand, Or, Nor, Xor, Xnor };

/// Returns the canonical lower-case name of a gate function.
std::string_view gate_fn_name(GateFn fn);

/// Identifier of a cell within a Library.
using CellId = int;

/// Electrical/sizing knobs of the library.
struct LibraryParams {
  double vdd = 1.0;                  ///< supply voltage [V]
  double wn = 360e-9;                ///< unit NMOS width [m]
  double wp = 720e-9;                ///< unit PMOS width [m]
  DeviceParams nmos = default_device(Channel::Nmos);
  DeviceParams pmos = default_device(Channel::Pmos);
  double delay_scale = 0.91;         ///< global delay calibration factor
                                     ///< (c880-class ALU ~ 3.55 ns fresh)
  double wire_cap_per_fanout = 0.6e-15;  ///< lumped wire cap per sink [F]
  double diffusion_cap_factor = 0.7; ///< drain diffusion cap as a fraction of
                                     ///< the driving stage's own gate cap
};

class LeakageTable;

/// A characterized standard-cell library.
///
/// Owns one memo: the leakage tables handed out by leakage_table(), one per
/// (temperature, Vth offset) key, created on first request and kept until
/// the last copy of the library is gone — copies share the memo, and the
/// tables stay valid for as long as a caller holds them.  No cap: a table is
/// about 1 KB, and a run meets a few dozen keys.
class Library {
 public:
  explicit Library(LibraryParams params = {});

  const LibraryParams& params() const { return params_; }
  int num_cells() const { return static_cast<int>(cells_->size()); }
  const Cell& cell(CellId id) const;

  /// Finds a cell by name ("NAND2", "INV", ...).
  /// \throws std::out_of_range when absent
  CellId find(std::string_view name) const;

  /// Maps a logic function + fanin to a cell.
  /// \throws std::out_of_range when the (fn, fanin) combination is not in
  ///         the library (fanin > 4 must be decomposed by the caller)
  CellId id_for(GateFn fn, int fanin) const;

  /// The logic function a cell implements.
  GateFn fn_of(CellId id) const;

  /// Input capacitance of a pin [F].
  double input_cap(CellId id, int pin) const;

  /// Total leakage (subthreshold + gate oxide) of a cell in a static input
  /// state [A].  \p input_bits packs pin values (pin i = bit i).
  /// \param vth_offset threshold offset applied to EVERY transistor — the
  ///        high-Vth cell variant of a dual-Vth flow [V]
  double cell_leakage(CellId id, std::uint32_t input_bits, double temp_k,
                      double vth_offset = 0.0) const;

  /// The shared lazily filled leakage table at \p temp_k with every
  /// transistor shifted by \p vth_offset, keyed on the bit patterns of
  /// both.  Thread-safe: concurrent first requests for one key create one
  /// table.
  /// \throws std::invalid_argument as LeakageTable's constructor
  std::shared_ptr<const LeakageTable> leakage_table(
      double temp_k, double vth_offset = 0.0) const;

  /// Pin-to-output propagation delay [s] driving \p c_load farad, with an
  /// optional NBTI threshold shift \p pmos_dvth applied to every PMOS.
  /// The delay is the longest stage path through the cell (exact alpha-power
  /// re-evaluation; the paper's first-order form lives in aging/).
  /// \param vth_offset threshold offset applied to every transistor (dual-Vth)
  double cell_delay(CellId id, double c_load, double temp_k,
                    double pmos_dvth = 0.0, double vth_offset = 0.0) const;

  /// Intrinsic output (diffusion) capacitance of the cell's last stage [F].
  double output_cap(CellId id) const;

  /// Signal edge at a cell boundary.
  enum class Edge : std::uint8_t { Rise, Fall };

  /// One timing arc result: propagation delay and output transition time.
  struct ArcTiming {
    double delay = 0.0;     ///< 50%-to-50% propagation delay [s]
    double out_slew = 0.0;  ///< 10%-90% output transition time [s]
  };

  /// Slew-aware arc characterization: delay/slew for the given *output*
  /// edge, external load and input transition time. Internally walks the
  /// stage network alternating edges (an inverting stage's rising output is
  /// produced by its falling input); reconvergent stage networks (XOR) take
  /// the worst path. NBTI's pmos_dvth weakens only the pull-up, so it only
  /// slows arcs whose stage-level edge is a rise — the physically correct
  /// asymmetry the scalar model averages away.
  /// \param nmos_dvth threshold shift of the NMOS devices (PBTI/HCI) —
  ///        slows pull-down (falling-output) stage arcs only
  /// \throws std::invalid_argument for negative load/slew
  ArcTiming cell_arc(CellId id, Edge out_edge, double c_load, double in_slew,
                     double temp_k, double pmos_dvth = 0.0,
                     double vth_offset = 0.0, double nmos_dvth = 0.0) const;

  /// Whether the cell's aggregate function is negative unate (inverting),
  /// positive unate, or binate (edge depends on the causing pin, e.g. XOR).
  enum class Unateness : std::uint8_t { Positive, Negative, Binate };
  Unateness unateness(CellId id) const;

 private:
  friend class LeakageTable;
  struct LeakageMemo;

  LibraryParams params_;
  std::shared_ptr<const std::vector<Cell>> cells_;  // shared with tables
  std::shared_ptr<LeakageMemo> leakage_memo_;
};

/// Dense per-vector leakage lookup table for a library at one temperature —
/// the "leakage lookup tables" input of the paper's Fig. 6 flow (eq. 24).
///
/// Entries are characterized lazily, on first read, each into its own
/// atomic slot: a table costs nothing until it is used and then only the
/// (cell, vector) entries a caller reads.  Reads are safe from any number
/// of threads, and each entry is characterized once: a thread that reads
/// an entry another thread is filling waits for its bits, so a table's cost
/// does not depend on how its readers overlap.  Every entry is bitwise
/// Library::cell_leakage of its key.  The table keeps its own share of the
/// library's cells, so it may outlive the library.
class LeakageTable {
 public:
  /// \param vth_offset builds the table for a Vth-shifted (e.g. high-Vth)
  ///        variant of every cell
  /// \throws std::invalid_argument for a temperature that is not finite and
  ///         positive, or a non-finite offset
  LeakageTable(const Library& lib, double temp_k, double vth_offset = 0.0);

  double temperature() const { return temp_k_; }
  double vth_offset() const { return vth_offset_; }

  /// Leakage of \p cell under packed \p input_bits [A].
  /// \throws std::out_of_range for a bad cell or vector
  double leakage(CellId cell, std::uint32_t input_bits) const;

  /// Expected leakage of a cell whose pins are independent with the given
  /// probabilities of being 1 (paper eq. 24).
  double expected_leakage(CellId cell, std::span<const double> pin_sp) const;

  /// Input vector with minimum leakage for one cell (lowest index on ties).
  std::uint32_t min_leakage_vector(CellId cell) const;

  /// Characterizes every entry not filled yet — the full cost of a table.
  void characterize_all() const;

 private:
  /// Number of input vectors of \p cell (its row length).
  /// \throws std::out_of_range for a bad cell
  std::uint32_t row_size(CellId cell) const;
  /// The entry of a validated (cell, vector) key, characterized on demand.
  double entry(CellId cell, std::uint32_t input_bits) const;

  LibraryParams params_;
  std::shared_ptr<const std::vector<Cell>> cells_;
  double temp_k_;
  double vth_offset_;
  std::vector<std::size_t> row_begin_;  // [cell], plus the total at the end
  /// Entry bit patterns; kUnfilled until characterized, kFilling while a
  /// thread characterizes it.
  std::unique_ptr<std::atomic<std::uint64_t>[]> entries_;
};

}  // namespace nbtisim::tech
