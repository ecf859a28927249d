#include "tech/library.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "tech/stack.h"
#include "tech/units.h"

namespace nbtisim::tech {
namespace {

/// Series depth of the NMOS pull-down of a stage.
int series_n(const Stage& st) {
  return st.kind == StageKind::Nand ? static_cast<int>(st.inputs.size()) : 1;
}

/// Series depth of the PMOS pull-up of a stage.
int series_p(const Stage& st) {
  return st.kind == StageKind::Nor ? static_cast<int>(st.inputs.size()) : 1;
}

/// Library::cell_leakage of a validated key — also what a LeakageTable
/// entry is filled with, so both are bitwise equal by construction.
double characterize_leakage(const LibraryParams& params, const Cell& c,
                            std::uint32_t input_bits, double temp_k,
                            double vth_offset) {
  const std::vector<bool> signals = c.signal_values(input_bits);
  const double vdd = params.vdd;
  double total = 0.0;

  for (std::size_t s = 0; s < c.stages().size(); ++s) {
    const Stage& st = c.stages()[s];
    const bool out = signals[c.num_pins() + s];

    // Subthreshold leakage through the non-conducting network.
    if (st.kind == StageKind::Nor) {
      if (out) {
        // Output high: every NMOS is off, in parallel, with full Vds.
        total += parallel_off_leakage(params.nmos, st.nmos_width,
                                      static_cast<int>(st.inputs.size()), vdd,
                                      temp_k, vth_offset);
      } else {
        // Output low: series PMOS stack from VDD; PMOS is on when gate = 0.
        std::vector<StackDevice> stack;
        for (int in : st.inputs) {
          stack.push_back(StackDevice{st.pmos_width, !signals[in], vth_offset});
        }
        total += solve_stack(params.pmos, stack, vdd, vdd, temp_k).current;
      }
    } else {  // Inv / Nand: series NMOS pull-down, parallel PMOS pull-up.
      if (out) {
        // Output high: leakage through the (possibly mixed) NMOS stack.
        std::vector<StackDevice> stack;
        for (int in : st.inputs) {
          stack.push_back(StackDevice{st.nmos_width, signals[in], vth_offset});
        }
        total += solve_stack(params.nmos, stack, vdd, vdd, temp_k).current;
      } else {
        // Output low: the off PMOS (gate = 1) leak in parallel, full Vds.
        int n_off = 0;
        for (int in : st.inputs) n_off += signals[in] ? 1 : 0;
        total += parallel_off_leakage(params.pmos, st.pmos_width, n_off, vdd,
                                      temp_k, vth_offset);
      }
    }

    // Gate-oxide tunnelling of ON transistors (full Vox across the oxide).
    for (int in : st.inputs) {
      if (signals[in]) {
        total += gate_leakage_current(params.nmos, st.nmos_width, vdd);
      } else {
        total += gate_leakage_current(params.pmos, st.pmos_width, vdd);
      }
    }
  }
  return total;
}

// The bit patterns of a LeakageTable entry not characterized yet, and of
// one a thread is characterizing: NaNs whose payloads no arithmetic on
// finite parameters produces.
constexpr std::uint64_t kUnfilled = ~std::uint64_t{0};
constexpr std::uint64_t kFilling = ~std::uint64_t{1};

}  // namespace

struct Library::LeakageMemo {
  std::mutex mutex;
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::shared_ptr<const LeakageTable>>
      tables;
};

std::string_view gate_fn_name(GateFn fn) {
  switch (fn) {
    case GateFn::Not: return "not";
    case GateFn::Buf: return "buf";
    case GateFn::And: return "and";
    case GateFn::Nand: return "nand";
    case GateFn::Or: return "or";
    case GateFn::Nor: return "nor";
    case GateFn::Xor: return "xor";
    case GateFn::Xnor: return "xnor";
  }
  return "?";
}

Library::Library(LibraryParams params)
    : params_(params), leakage_memo_(std::make_shared<LeakageMemo>()) {
  const double wn = params_.wn;
  const double wp = params_.wp;
  std::vector<Cell> cells;
  cells.push_back(make_inverter(wn, wp));
  cells.push_back(make_buffer(wn, wp));
  for (int k = 2; k <= 4; ++k) cells.push_back(make_nand(k, wn, wp));
  for (int k = 2; k <= 4; ++k) cells.push_back(make_nor(k, wn, wp));
  for (int k = 2; k <= 4; ++k) cells.push_back(make_and(k, wn, wp));
  for (int k = 2; k <= 4; ++k) cells.push_back(make_or(k, wn, wp));
  cells.push_back(make_xor2(wn, wp));
  cells.push_back(make_xnor2(wn, wp));
  cells_ = std::make_shared<const std::vector<Cell>>(std::move(cells));
}

const Cell& Library::cell(CellId id) const {
  if (id < 0 || id >= num_cells()) throw std::out_of_range("Library::cell: bad id");
  return (*cells_)[id];
}

CellId Library::find(std::string_view name) const {
  for (int i = 0; i < num_cells(); ++i) {
    if ((*cells_)[i].name() == name) return i;
  }
  throw std::out_of_range("Library::find: no cell named " + std::string(name));
}

CellId Library::id_for(GateFn fn, int fanin) const {
  switch (fn) {
    case GateFn::Not: return find("INV");
    case GateFn::Buf: return find("BUF");
    case GateFn::And: return find("AND" + std::to_string(fanin));
    case GateFn::Nand: return find("NAND" + std::to_string(fanin));
    case GateFn::Or: return find("OR" + std::to_string(fanin));
    case GateFn::Nor: return find("NOR" + std::to_string(fanin));
    case GateFn::Xor: return find("XOR" + std::to_string(fanin));
    case GateFn::Xnor: return find("XNOR" + std::to_string(fanin));
  }
  throw std::out_of_range("Library::id_for: unknown function");
}

GateFn Library::fn_of(CellId id) const {
  const std::string& n = cell(id).name();
  if (n == "INV") return GateFn::Not;
  if (n == "BUF") return GateFn::Buf;
  if (n.starts_with("NAND")) return GateFn::Nand;
  if (n.starts_with("NOR")) return GateFn::Nor;
  if (n.starts_with("XNOR")) return GateFn::Xnor;
  if (n.starts_with("XOR")) return GateFn::Xor;
  if (n.starts_with("AND")) return GateFn::And;
  if (n.starts_with("OR")) return GateFn::Or;
  throw std::logic_error("Library::fn_of: unnamed cell");
}

double Library::input_cap(CellId id, int pin) const {
  const Cell& c = cell(id);
  if (pin < 0 || pin >= c.num_pins()) {
    throw std::out_of_range("Library::input_cap: bad pin");
  }
  double cap = 0.0;
  for (const Stage& st : c.stages()) {
    for (int in : st.inputs) {
      if (in == pin) {
        cap += gate_capacitance(params_.nmos, st.nmos_width) +
               gate_capacitance(params_.pmos, st.pmos_width);
      }
    }
  }
  return cap;
}

double Library::output_cap(CellId id) const {
  const Stage& last = cell(id).stages().back();
  const double own_gate_cap = gate_capacitance(params_.nmos, last.nmos_width) +
                              gate_capacitance(params_.pmos, last.pmos_width);
  return params_.diffusion_cap_factor * own_gate_cap;
}

double Library::cell_leakage(CellId id, std::uint32_t input_bits,
                             double temp_k, double vth_offset) const {
  const Cell& c = cell(id);
  if (input_bits >= (1u << c.num_pins())) {
    throw std::out_of_range("cell_leakage: vector out of range");
  }
  return characterize_leakage(params_, c, input_bits, temp_k, vth_offset);
}

std::shared_ptr<const LeakageTable> Library::leakage_table(
    double temp_k, double vth_offset) const {
  const std::pair key{std::bit_cast<std::uint64_t>(temp_k),
                      std::bit_cast<std::uint64_t>(vth_offset)};
  std::lock_guard<std::mutex> lock(leakage_memo_->mutex);
  const auto it = leakage_memo_->tables.find(key);
  if (it != leakage_memo_->tables.end()) return it->second;
  // Cheap under the lock: entries are characterized later, on first read.
  auto table = std::make_shared<const LeakageTable>(*this, temp_k, vth_offset);
  leakage_memo_->tables.emplace(key, table);
  return table;
}

double Library::cell_delay(CellId id, double c_load, double temp_k,
                           double pmos_dvth, double vth_offset) const {
  const Cell& c = cell(id);
  const double vdd = params_.vdd;
  const int np = c.num_pins();
  const int ns = c.num_stages();

  // Load seen by each stage: gate caps of consuming stages (+ diffusion for
  // the driving stage); the last stage additionally drives c_load.
  std::vector<double> stage_load(ns, 0.0);
  for (int s = 0; s < ns; ++s) {
    stage_load[s] += output_cap(id);
    for (int t = s + 1; t < ns; ++t) {
      const Stage& sink = c.stages()[t];
      for (int in : sink.inputs) {
        if (in == np + s) {
          stage_load[s] += gate_capacitance(params_.nmos, sink.nmos_width) +
                           gate_capacitance(params_.pmos, sink.pmos_width);
        }
      }
    }
  }
  stage_load[ns - 1] += c_load;

  // Longest-path arrival through the stage network.
  std::vector<double> arrival(ns, 0.0);
  double out_arrival = 0.0;
  for (int s = 0; s < ns; ++s) {
    const Stage& st = c.stages()[s];
    const double i_fall =
        drive_current(params_.nmos, st.nmos_width, vdd, temp_k, vth_offset) /
        series_n(st);
    const double i_rise =
        drive_current(params_.pmos, st.pmos_width, vdd, temp_k,
                      pmos_dvth + vth_offset) /
        series_p(st);
    if (i_fall <= 0.0 || i_rise <= 0.0) {
      throw std::domain_error("cell_delay: device cannot switch (dVth too large?)");
    }
    const double d_stage = params_.delay_scale * 0.5 * stage_load[s] * vdd *
                           (1.0 / i_fall + 1.0 / i_rise);
    double in_arrival = 0.0;
    for (int in : st.inputs) {
      if (in >= np) in_arrival = std::max(in_arrival, arrival[in - np]);
    }
    arrival[s] = in_arrival + d_stage;
    out_arrival = std::max(out_arrival, arrival[s]);
  }
  return arrival[ns - 1];
}

Library::ArcTiming Library::cell_arc(CellId id, Edge out_edge, double c_load,
                                     double in_slew, double temp_k,
                                     double pmos_dvth, double vth_offset,
                                     double nmos_dvth) const {
  if (c_load < 0.0 || in_slew < 0.0) {
    throw std::invalid_argument("cell_arc: negative load or slew");
  }
  const Cell& c = cell(id);
  const double vdd = params_.vdd;
  const int np = c.num_pins();
  const int ns = c.num_stages();

  // Stage loads, as in cell_delay.
  std::vector<double> stage_load(ns, 0.0);
  for (int s = 0; s < ns; ++s) {
    stage_load[s] += output_cap(id);
    for (int t = s + 1; t < ns; ++t) {
      const Stage& sink = c.stages()[t];
      for (int in : sink.inputs) {
        if (in == np + s) {
          stage_load[s] += gate_capacitance(params_.nmos, sink.nmos_width) +
                           gate_capacitance(params_.pmos, sink.pmos_width);
        }
      }
    }
  }
  stage_load[ns - 1] += c_load;

  // Per-signal (arrival, slew) for each edge; pins carry both edges at t=0.
  struct EdgeState {
    double arrival = 0.0;
    double slew = 0.0;
  };
  std::vector<EdgeState> rise(c.num_signals(), EdgeState{0.0, in_slew});
  std::vector<EdgeState> fall(c.num_signals(), EdgeState{0.0, in_slew});

  constexpr double kLn2 = 0.693;
  constexpr double kSlewOut = 2.2;
  constexpr double kSlewIn = 0.25;

  for (int s = 0; s < ns; ++s) {
    const Stage& st = c.stages()[s];
    const double i_fall =
        drive_current(params_.nmos, st.nmos_width, vdd, temp_k,
                      nmos_dvth + vth_offset) /
        series_n(st);
    const double i_rise =
        drive_current(params_.pmos, st.pmos_width, vdd, temp_k,
                      pmos_dvth + vth_offset) /
        series_p(st);
    if (i_fall <= 0.0 || i_rise <= 0.0) {
      throw std::domain_error("cell_arc: device cannot switch");
    }
    const double tau_rise = stage_load[s] * vdd / i_rise;
    const double tau_fall = stage_load[s] * vdd / i_fall;

    // Every stage kind is single-level static CMOS (inverting): the stage's
    // rising output is caused by a falling input and vice versa.
    EdgeState out_rise{0.0, 0.0}, out_fall{0.0, 0.0};
    bool first = true;
    for (int in : st.inputs) {
      const EdgeState& in_fall = fall[in];
      const EdgeState& in_rise = rise[in];
      const double d_rise = params_.delay_scale *
                            (kLn2 * tau_rise + kSlewIn * in_fall.slew);
      const double d_fall = params_.delay_scale *
                            (kLn2 * tau_fall + kSlewIn * in_rise.slew);
      const EdgeState cand_rise{in_fall.arrival + d_rise,
                                params_.delay_scale * kSlewOut * tau_rise};
      const EdgeState cand_fall{in_rise.arrival + d_fall,
                                params_.delay_scale * kSlewOut * tau_fall};
      if (first || cand_rise.arrival > out_rise.arrival) out_rise = cand_rise;
      if (first || cand_fall.arrival > out_fall.arrival) out_fall = cand_fall;
      first = false;
    }
    rise[np + s] = out_rise;
    fall[np + s] = out_fall;
  }

  const EdgeState& out =
      out_edge == Edge::Rise ? rise.back() : fall.back();
  return ArcTiming{out.arrival, out.slew};
}

Library::Unateness Library::unateness(CellId id) const {
  switch (fn_of(id)) {
    case GateFn::Not:
    case GateFn::Nand:
    case GateFn::Nor:
      return Unateness::Negative;
    case GateFn::Buf:
    case GateFn::And:
    case GateFn::Or:
      return Unateness::Positive;
    case GateFn::Xor:
    case GateFn::Xnor:
      return Unateness::Binate;
  }
  throw std::logic_error("unateness: unknown function");
}

// ---------------------------------------------------------------------------
// LeakageTable
// ---------------------------------------------------------------------------

LeakageTable::LeakageTable(const Library& lib, double temp_k,
                           double vth_offset)
    : params_(lib.params_), cells_(lib.cells_), temp_k_(temp_k),
      vth_offset_(vth_offset) {
  // Written so that NaN fails: the pair is a key of the library's memo.
  if (!(temp_k > 0.0 && std::isfinite(temp_k))) {
    throw std::invalid_argument(
        "LeakageTable: temperature must be finite and positive, got " +
        std::to_string(temp_k) + " K");
  }
  if (!std::isfinite(vth_offset)) {
    throw std::invalid_argument("LeakageTable: non-finite Vth offset " +
                                std::to_string(vth_offset));
  }
  row_begin_.reserve(cells_->size() + 1);
  row_begin_.push_back(0);
  for (const Cell& c : *cells_) {
    row_begin_.push_back(row_begin_.back() + (std::size_t{1} << c.num_pins()));
  }
  entries_ = std::make_unique<std::atomic<std::uint64_t>[]>(row_begin_.back());
  for (std::size_t i = 0; i < row_begin_.back(); ++i) {
    entries_[i].store(kUnfilled, std::memory_order_relaxed);
  }
}

std::uint32_t LeakageTable::row_size(CellId cell) const {
  if (cell < 0 || cell >= static_cast<int>(cells_->size())) {
    throw std::out_of_range("LeakageTable: bad cell id");
  }
  return static_cast<std::uint32_t>(row_begin_[cell + 1] - row_begin_[cell]);
}

double LeakageTable::entry(CellId cell, std::uint32_t input_bits) const {
  std::atomic<std::uint64_t>& slot = entries_[row_begin_[cell] + input_bits];
  std::uint64_t bits = slot.load(std::memory_order_acquire);
  while (bits == kUnfilled || bits == kFilling) {
    if (bits == kFilling) {
      // Another thread is characterizing this entry: wait for its bits
      // rather than compute them a second time.
      slot.wait(kFilling, std::memory_order_acquire);
      bits = slot.load(std::memory_order_acquire);
    } else if (slot.compare_exchange_weak(bits, kFilling,
                                          std::memory_order_acquire)) {
      try {
        bits = std::bit_cast<std::uint64_t>(characterize_leakage(
            params_, (*cells_)[cell], input_bits, temp_k_, vth_offset_));
      } catch (...) {
        slot.store(kUnfilled, std::memory_order_release);
        slot.notify_all();
        throw;
      }
      slot.store(bits, std::memory_order_release);
      slot.notify_all();
    }
  }
  return std::bit_cast<double>(bits);
}

double LeakageTable::leakage(CellId cell, std::uint32_t input_bits) const {
  if (input_bits >= row_size(cell)) {
    throw std::out_of_range("LeakageTable: vector out of range");
  }
  return entry(cell, input_bits);
}

double LeakageTable::expected_leakage(CellId cell,
                                      std::span<const double> pin_sp) const {
  const std::uint32_t rows = row_size(cell);
  const std::size_t n = pin_sp.size();
  if (rows != (1u << n)) {
    throw std::invalid_argument("expected_leakage: pin count mismatch");
  }
  double sum = 0.0;
  for (std::uint32_t v = 0; v < rows; ++v) {
    double prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      prob *= ((v >> i) & 1u) ? pin_sp[i] : (1.0 - pin_sp[i]);
    }
    sum += prob * entry(cell, v);
  }
  return sum;
}

std::uint32_t LeakageTable::min_leakage_vector(CellId cell) const {
  const std::uint32_t rows = row_size(cell);
  std::uint32_t best = 0;
  for (std::uint32_t v = 1; v < rows; ++v) {
    if (entry(cell, v) < entry(cell, best)) best = v;
  }
  return best;
}

void LeakageTable::characterize_all() const {
  for (CellId cell = 0; cell < static_cast<int>(cells_->size()); ++cell) {
    for (std::uint32_t v = 0; v < row_size(cell); ++v) entry(cell, v);
  }
}

}  // namespace nbtisim::tech
