#include "sim/simulator.h"

#include <bit>
#include <random>
#include <stdexcept>
#include <string>

#include "common/pool.h"
#include "common/rng.h"

namespace nbtisim::sim {

bool eval_gate(tech::GateFn fn, const std::vector<bool>& fanins) {
  using tech::GateFn;
  if (fanins.empty()) throw std::invalid_argument("eval_gate: no fanins");
  switch (fn) {
    case GateFn::Not:
      return !fanins[0];
    case GateFn::Buf:
      return fanins[0];
    case GateFn::And:
    case GateFn::Nand: {
      bool all = true;
      for (bool v : fanins) all = all && v;
      return fn == GateFn::And ? all : !all;
    }
    case GateFn::Or:
    case GateFn::Nor: {
      bool any = false;
      for (bool v : fanins) any = any || v;
      return fn == GateFn::Or ? any : !any;
    }
    case GateFn::Xor:
    case GateFn::Xnor: {
      bool acc = false;
      for (bool v : fanins) acc = acc != v;
      return fn == GateFn::Xor ? acc : !acc;
    }
  }
  throw std::logic_error("eval_gate: unknown function");
}

std::vector<bool> Simulator::evaluate(const std::vector<bool>& pi_values) const {
  return evaluate_forced(pi_values, {});
}

std::vector<bool> Simulator::evaluate_forced(
    const std::vector<bool>& pi_values,
    std::span<const std::pair<netlist::NodeId, bool>> forces) const {
  const netlist::Netlist& nl = *nl_;
  if (static_cast<int>(pi_values.size()) != nl.num_inputs()) {
    throw std::invalid_argument("Simulator::evaluate: PI count mismatch");
  }
  // Forced values are applied when the net's value is determined (input
  // assignment or gate evaluation), so they propagate downstream.
  std::vector<signed char> forced(nl.num_nodes(), -1);
  for (const auto& [node, v] : forces) {
    if (node < 0 || node >= nl.num_nodes()) {
      throw std::invalid_argument("Simulator::evaluate_forced: bad net id");
    }
    forced[node] = v ? 1 : 0;
  }

  std::vector<bool> value(nl.num_nodes(), false);
  for (int i = 0; i < nl.num_inputs(); ++i) {
    const netlist::NodeId n = nl.inputs()[i];
    value[n] = forced[n] < 0 ? pi_values[i] : forced[n] != 0;
  }
  std::vector<bool> ins;
  for (const netlist::Gate& g : nl.gates()) {
    if (forced[g.output] >= 0) {
      value[g.output] = forced[g.output] != 0;
      continue;
    }
    ins.clear();
    for (netlist::NodeId in : g.fanins) ins.push_back(value[in]);
    value[g.output] = eval_gate(g.fn, ins);
  }
  return value;
}

std::vector<std::uint64_t> Simulator::evaluate_words(
    std::span<const std::uint64_t> pi_words) const {
  using tech::GateFn;
  const netlist::Netlist& nl = *nl_;
  if (static_cast<int>(pi_words.size()) != nl.num_inputs()) {
    throw std::invalid_argument("Simulator::evaluate_words: PI count mismatch");
  }
  std::vector<std::uint64_t> value(nl.num_nodes(), 0);
  for (int i = 0; i < nl.num_inputs(); ++i) value[nl.inputs()[i]] = pi_words[i];
  for (const netlist::Gate& g : nl.gates()) {
    std::uint64_t acc;
    switch (g.fn) {
      case GateFn::Not:
        acc = ~value[g.fanins[0]];
        break;
      case GateFn::Buf:
        acc = value[g.fanins[0]];
        break;
      case GateFn::And:
      case GateFn::Nand:
        acc = ~0ull;
        for (netlist::NodeId in : g.fanins) acc &= value[in];
        if (g.fn == GateFn::Nand) acc = ~acc;
        break;
      case GateFn::Or:
      case GateFn::Nor:
        acc = 0;
        for (netlist::NodeId in : g.fanins) acc |= value[in];
        if (g.fn == GateFn::Nor) acc = ~acc;
        break;
      case GateFn::Xor:
      case GateFn::Xnor:
        acc = 0;
        for (netlist::NodeId in : g.fanins) acc ^= value[in];
        if (g.fn == GateFn::Xnor) acc = ~acc;
        break;
      default:
        throw std::logic_error("evaluate_words: unknown function");
    }
    value[g.output] = acc;
  }
  return value;
}

std::vector<bool> Simulator::outputs(const std::vector<bool>& pi_values) const {
  const std::vector<bool> value = evaluate(pi_values);
  std::vector<bool> out;
  out.reserve(nl_->num_outputs());
  for (netlist::NodeId po : nl_->outputs()) out.push_back(value[po]);
  return out;
}

namespace {

// Words per RNG block. Fixed (not derived from the thread count) so the
// block decomposition — and with it each block's RNG stream — is the same
// for every n_threads, which is what makes parallel runs bit-identical to
// serial ones.
constexpr int kBlockWords = 4;  // 256 vectors per block

// Per-block accumulators plus the boundary bits needed to stitch toggle
// counts across block seams during the ordered reduction.
struct StatsBlock {
  std::vector<std::uint32_t> one_count;
  std::vector<std::uint32_t> toggle_count;
  std::vector<std::uint8_t> first_bit;  // bit 0 of the block's first word
  std::vector<std::uint8_t> last_bit;   // bit 63 of the block's last word
};

}  // namespace

SignalStats estimate_signal_stats(const netlist::Netlist& nl,
                                  std::span<const double> input_sp,
                                  int n_vectors, std::uint64_t seed,
                                  int n_threads) {
  if (static_cast<int>(input_sp.size()) != nl.num_inputs()) {
    throw std::invalid_argument("estimate_signal_stats: SP count mismatch");
  }
  if (n_vectors < 1) {
    throw std::invalid_argument("estimate_signal_stats: n_vectors < 1");
  }
  for (double sp : input_sp) {
    // NaN fails this check; it would otherwise be sampled as 0.
    if (!(sp >= 0.0 && sp <= 1.0)) {
      throw std::invalid_argument(
          "estimate_signal_stats: SP outside [0,1], got " + std::to_string(sp));
    }
  }

  const int n_nodes = nl.num_nodes();
  const int n_words = (n_vectors + 63) / 64;
  const int n_blocks = (n_words + kBlockWords - 1) / kBlockWords;
  // Valid bits of the final (possibly partial) word.
  const int tail_bits = n_vectors - 64 * (n_words - 1);
  const std::uint64_t tail_mask =
      tail_bits == 64 ? ~0ull : (1ull << tail_bits) - 1ull;

  std::vector<StatsBlock> blocks(n_blocks);
  common::parallel_for(n_blocks, n_threads, [&](int blk) {
    const Simulator sim(nl);
    std::mt19937_64 rng(common::stream_seed(seed, blk));
    std::uniform_real_distribution<double> uni(0.0, 1.0);

    StatsBlock& out = blocks[blk];
    out.one_count.assign(n_nodes, 0);
    out.toggle_count.assign(n_nodes, 0);
    out.first_bit.assign(n_nodes, 0);
    out.last_bit.assign(n_nodes, 0);

    std::vector<std::uint64_t> pi_words(nl.num_inputs());
    std::vector<std::uint64_t> prev;
    const int w_begin = blk * kBlockWords;
    const int w_end = std::min(n_words, w_begin + kBlockWords);
    for (int w = w_begin; w < w_end; ++w) {
      for (int i = 0; i < nl.num_inputs(); ++i) {
        std::uint64_t word = 0;
        for (int b = 0; b < 64; ++b) {
          word |= (uni(rng) < input_sp[i]) ? (1ull << b) : 0ull;
        }
        pi_words[i] = word;
      }
      const std::vector<std::uint64_t> value = sim.evaluate_words(pi_words);
      // Only n_vectors patterns were requested; the surplus bits of the
      // final word must not leak into the counts.
      const bool tail = w == n_words - 1;
      const std::uint64_t valid = tail ? tail_mask : ~0ull;
      const int bits = tail ? tail_bits : 64;
      // Transitions bit b -> b+1 exist for b in [0, bits - 1).
      const std::uint64_t intra =
          bits < 2 ? 0ull : (bits == 64 ? ~(1ull << 63) : (valid >> 1));
      if (w == w_begin) {
        for (int n = 0; n < n_nodes; ++n) out.first_bit[n] = value[n] & 1ull;
      }
      for (int n = 0; n < n_nodes; ++n) {
        const std::uint64_t v = value[n];
        out.one_count[n] += std::popcount(v & valid);
        const std::uint64_t t = v ^ (v >> 1);
        out.toggle_count[n] += std::popcount(t & intra);
        if (w > w_begin) {
          // Seam to the previous word inside this block.
          out.toggle_count[n] += ((prev[n] >> 63) ^ v) & 1ull;
        }
      }
      prev = value;
    }
    for (int n = 0; n < n_nodes; ++n) out.last_bit[n] = (prev[n] >> 63) & 1ull;
  });

  // Ordered reduction: integer counts summed in block order, plus the seam
  // transition between consecutive blocks.
  std::vector<std::uint64_t> one_total(n_nodes, 0);
  std::vector<std::uint64_t> toggle_total(n_nodes, 0);
  for (int blk = 0; blk < n_blocks; ++blk) {
    const StatsBlock& b = blocks[blk];
    for (int n = 0; n < n_nodes; ++n) {
      one_total[n] += b.one_count[n];
      toggle_total[n] += b.toggle_count[n];
      if (blk > 0) {
        toggle_total[n] += blocks[blk - 1].last_bit[n] != b.first_bit[n];
      }
    }
  }

  const double total = static_cast<double>(n_vectors);
  SignalStats stats;
  stats.n_vectors = n_vectors;
  stats.probability.resize(n_nodes);
  stats.activity.resize(n_nodes);
  for (int n = 0; n < n_nodes; ++n) {
    stats.probability[n] = static_cast<double>(one_total[n]) / total;
    stats.activity[n] =
        n_vectors < 2 ? 0.0
                      : static_cast<double>(toggle_total[n]) / (total - 1.0);
  }
  return stats;
}

}  // namespace nbtisim::sim
