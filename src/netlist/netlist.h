/// \file netlist.h
/// \brief Gate-level combinational netlists modeled as DAGs.
///
/// "In circuit timing analysis, a combinational circuit can be modeled as a
/// directed acyclic graph G = (V, E)" (paper Section 3.3).  A Netlist owns
/// named nets (nodes) and gates; construction order enforces acyclicity
/// (every gate's fanins must already exist), so the gate list is always a
/// valid topological order.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tech/library.h"

namespace nbtisim::netlist {

/// Identifier of a net (signal) within a netlist.
using NodeId = int;

/// One logic gate instance.
struct Gate {
  tech::GateFn fn = tech::GateFn::Buf;
  std::vector<NodeId> fanins;
  NodeId output = -1;
};

/// Cached level structure of a netlist — the shared substrate for every
/// level-ordered traversal (logic-depth reports, incremental STA wavefronts,
/// level-scheduled evaluation).  Built lazily once per topology by
/// Netlist::levelization() and dropped on any mutation; all views are
/// immutable, so one instance can be read concurrently.
struct Levelization {
  /// Logic level per net: primary inputs at 0, gate output = 1 + max fanin
  /// level (exactly what Netlist::node_levels() always reported).
  std::vector<int> node_level;
  /// Longest input-to-output path length in gates (the max node level).
  int depth = 0;
  /// Gate wavefronts: gate indices bucketed by the level of their output
  /// net, as a CSR over levels 0..depth.  wavefront(l) lists every gate
  /// whose output sits at level l in ascending gate index; gates within one
  /// wavefront never read each other's outputs, so a wavefront can be
  /// processed in any order (or concurrently) without changing results.
  std::vector<int> level_offset;  ///< size depth + 2
  std::vector<int> level_gates;   ///< size num_gates
  /// Fanout CSR: the reader gate indices of every net in one flat array —
  /// the per-net vector<vector<int>> flattened for cache locality.
  std::vector<int> fanout_offset;  ///< size num_nodes + 1
  std::vector<int> fanout_gates;

  /// Gates whose output net sits at \p level (empty for level 0).
  std::span<const int> wavefront(int level) const {
    return std::span<const int>(level_gates)
        .subspan(level_offset[level],
                 level_offset[level + 1] - level_offset[level]);
  }
  /// Reader gates of \p node.
  std::span<const int> fanout(NodeId node) const {
    return std::span<const int>(fanout_gates)
        .subspan(fanout_offset[node],
                 fanout_offset[node + 1] - fanout_offset[node]);
  }
};

/// A combinational gate-level netlist.
class Netlist {
 public:
  explicit Netlist(std::string name);

  const std::string& name() const { return name_; }

  /// Creates a primary input net.
  /// \throws std::invalid_argument on duplicate net names
  NodeId add_input(std::string node_name);

  /// Creates a gate driving a new net; fanins must already exist.
  /// Gates with more than 4 fanins must be decomposed first
  /// (see build_wide_gate).
  /// \throws std::invalid_argument on bad fanins, arity, or duplicate names
  NodeId add_gate(tech::GateFn fn, std::vector<NodeId> fanins,
                  std::string out_name);

  /// Reserves room for \p nodes nets and \p gates gates (readers that know
  /// the final size avoid rehashing the name index while they build).
  void reserve(int nodes, int gates);

  /// Marks an existing net as a primary output.
  void mark_output(NodeId node);

  int num_nodes() const { return static_cast<int>(node_names_.size()); }
  int num_gates() const { return static_cast<int>(gates_.size()); }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }

  std::span<const NodeId> inputs() const { return inputs_; }
  std::span<const NodeId> outputs() const { return outputs_; }
  std::span<const Gate> gates() const { return gates_; }
  const Gate& gate(int idx) const { return gates_.at(idx); }

  const std::string& node_name(NodeId node) const;

  /// Finds a net by name (no string is built for the lookup).
  /// \throws std::out_of_range when no such net exists
  NodeId find_node(std::string_view node_name) const;
  bool has_node(std::string_view node_name) const;

  /// Index of the gate driving \p node, or -1 for primary inputs.
  int driver_gate(NodeId node) const { return driver_.at(node); }
  bool is_input(NodeId node) const { return driver_.at(node) < 0; }

  /// Indices of gates reading \p node.
  std::span<const int> fanout_gates(NodeId node) const;

  /// The cached level structure (levels, depth, wavefront + fanout CSR).
  /// Built on first use, O(V + E); every later call is a cache hit until the
  /// netlist mutates.  The reference stays valid until the next mutating
  /// call (add_input/add_gate/mark_output/reorder_gates) — the same
  /// read-vs-mutate exclusion every query on this class already requires.
  /// Thread-safe: concurrent calls build at most one instance.
  const Levelization& levelization() const;

  /// Logic level of each node (inputs at 0; gate output = 1 + max fanin
  /// level).  A copy of levelization().node_level — prefer the cached view
  /// in hot paths.
  std::vector<int> node_levels() const;

  /// Longest input-to-output path length in gates (cached).
  int depth() const;

  /// Structural sanity checks (every output reachable, arities consistent).
  /// \throws std::logic_error describing the first violation
  void validate() const;

  /// Verifies the topological-order contract this header documents: every
  /// gate reads only primary inputs or outputs of *earlier* gates.
  /// StaEngine::analyze and Simulator silently miscompute on a violating
  /// gate list.  Netlists built through add_gate() hold it by construction;
  /// the .bench/Verilog loaders and the generators call this after
  /// construction, and it is the guard to run after reorder_gates().
  /// \throws std::logic_error naming the first offending gate
  void validate_topological() const;

  /// Re-orders the gate list: new gate i is old gate order[i].  Driver and
  /// fanout gate indices are remapped; nets keep their ids.  Useful for
  /// scheduling experiments (e.g. level-ordered evaluation).  Does NOT
  /// check that the new order is topological — follow with
  /// validate_topological() unless the permutation is known-safe.
  /// \throws std::invalid_argument if \p order is not a permutation of the
  ///         gate indices
  void reorder_gates(std::span<const int> order);

 private:
  std::string name_;
  std::vector<std::string> node_names_;
  /// Transparent hash: lookups take a string_view without copying it.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>> by_name_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<Gate> gates_;
  std::vector<int> driver_;                 // node -> gate index or -1
  std::vector<std::vector<int>> fanouts_;   // node -> reader gate indices

  // Lazily built level cache.  The mutex lives behind a shared_ptr so the
  // class keeps its implicit copy/move operations (copies share the mutex,
  // which is only ever contended, never corrupted; the cache itself is
  // immutable and safely shared).
  mutable std::shared_ptr<std::mutex> level_mutex_ =
      std::make_shared<std::mutex>();
  mutable std::shared_ptr<const Levelization> level_cache_;

  NodeId new_node(std::string node_name);
  void invalidate_levelization();
};

/// Builds a possibly-wide gate, decomposing fanin > 4 into a balanced tree of
/// library-supported gates (inverting functions keep their polarity: a wide
/// NAND becomes an AND-tree feeding a final NAND layer).
/// \returns the net carrying the function of all \p fanins
NodeId build_wide_gate(Netlist& nl, tech::GateFn fn, std::span<const NodeId> fanins,
                       const std::string& name_prefix);

}  // namespace nbtisim::netlist
