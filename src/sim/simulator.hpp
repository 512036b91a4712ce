// Bit-parallel fault-free logic simulation and switching-activity
// estimation, over a flat 64-byte-aligned SoA value arena evaluated by
// runtime-dispatched SIMD kernels (sim/kernels.hpp). This is the
// measurement engine behind power overhead (total switching activity) and
// the sampled estimates used by the synthesis core for signal
// probabilities. Fault injection lives in one place: FaultSimEngine
// (sim/fault_engine.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "network/topology_view.hpp"
#include "sim/arena.hpp"
#include "sim/kernels.hpp"

namespace apx {

/// A batch of input patterns: one 64-bit word column per PI per word index.
/// Bit b of word(pi, w) is the value of that PI in pattern 64*w+b.
/// Columns live in one contiguous cache-line-aligned SoA arena (one padded
/// row per PI) so simulators can bulk-copy and SIMD kernels can read them
/// at full lane width.
class PatternSet {
 public:
  PatternSet(int num_pis, int num_words) : num_pis_(num_pis) {
    bits_.reset(num_pis, num_words);
  }

  /// Uniform random patterns. Word (pi, w) is derived purely from
  /// (seed, pi, w) — see derive_seed in sim/rng.hpp — so the generated
  /// patterns are independent of memory layout and generation order, and
  /// provably survive storage migrations unchanged (pinned by a
  /// golden-vector test).
  static PatternSet random(int num_pis, int num_words, uint64_t seed);

  /// Biased random patterns: bit of PI i is 1 with probability probs[i]
  /// (the paper's "input vectors not equally likely" setting, Sec. 2).
  /// Like random(), the randomness of word (pi, w) is derived purely from
  /// (seed, pi, w).
  static PatternSet biased(const std::vector<double>& probs, int num_words,
                           uint64_t seed);

  /// All 2^num_pis exhaustive patterns (requires num_pis <= 16).
  static PatternSet exhaustive(int num_pis);

  int num_pis() const { return num_pis_; }
  int num_words() const { return bits_.words(); }
  int num_patterns() const { return bits_.words() * 64; }

  uint64_t word(int pi, int w) const { return bits_.row(pi)[w]; }
  void set_word(int pi, int w, uint64_t value) { bits_.row(pi)[w] = value; }
  WordSpan column(int pi) const { return bits_.span(pi); }

 private:
  int num_pis_;
  ValueArena bits_;
};

/// Bit-parallel fault-free simulator over a network. The
/// simulator may outlive mutations of the network: run() re-evaluates every
/// node and refreshes its cached topological order whenever the network's
/// structure version moved, so one instance can be reused across repair
/// rounds instead of being reconstructed per round.
///
/// The value plane is a flat SoA arena (one aligned row per node); value()
/// returns non-owning WordSpan views that stay valid until the next run()
/// with a different geometry.
class Simulator {
 public:
  explicit Simulator(const Network& net);

  /// Simulates the fault-free circuit on the pattern set. Picks up any
  /// network mutation made since the previous run (SOP rewrites are
  /// re-evaluated unconditionally; structural changes re-derive the
  /// cached topological order via Network::structure_version()).
  void run(const PatternSet& patterns);

  /// Golden value words of a node (valid after run()).
  WordSpan value(NodeId id) const { return golden_.span(id); }

  /// Signal probability of a node over the simulated patterns.
  double signal_probability(NodeId id) const;

  /// Switching activity 2*p*(1-p) of a node under the temporal-independence
  /// model for uniformly random vectors.
  double switching_activity(NodeId id) const;

  /// Total switching activity over logic nodes ("power" in the paper's
  /// Table 2 metric).
  double total_activity() const;

  const Network& network() const { return net_; }

 private:
  const Network& net_;
  /// Cached structure snapshot; refreshed by run() when the network's
  /// structure_version moved.
  std::shared_ptr<const TopologyView> view_;
  int num_words_ = 0;

  ValueArena golden_;
};

}  // namespace apx
