#include "sim/simulator.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "sim/rng.hpp"

namespace apx {

namespace {

/// Layout-independent per-word seed key: word w of PI pi draws from
/// derive_seed(seed, pi << 32 | w). PI and word indices never reach 2^31,
/// so keys are unique per (pi, w).
inline uint64_t word_key(int pi, int w) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(pi)) << 32) |
         static_cast<uint32_t>(w);
}

}  // namespace

PatternSet PatternSet::random(int num_pis, int num_words, uint64_t seed) {
  PatternSet p(num_pis, num_words);
  for (int i = 0; i < num_pis; ++i) {
    uint64_t* row = p.bits_.row(i);
    for (int w = 0; w < num_words; ++w) {
      row[w] = derive_seed(seed, word_key(i, w));
    }
  }
  return p;
}

PatternSet PatternSet::biased(const std::vector<double>& probs, int num_words,
                              uint64_t seed) {
  for (double p : probs) {
    if (!(p >= 0.0 && p <= 1.0)) {  // also rejects NaN
      throw std::invalid_argument(
          "PatternSet::biased: probability outside [0,1]");
    }
  }
  const int num_pis = static_cast<int>(probs.size());
  PatternSet p(num_pis, num_words);
  for (int i = 0; i < num_pis; ++i) {
    // Compose the bias from up to 16 random words: each bit independently
    // keeps a running Bernoulli(prob) approximation with 2^-16 resolution
    // (binary expansion trick: walk the probability's bits from LSB of
    // precision, AND for a 0 bit, OR for a 1 bit). Each (pi, word) cell
    // draws from its own derived seed, so the generated patterns are
    // independent of generation order and layout.
    uint32_t q = static_cast<uint32_t>(probs[i] * 65536.0 + 0.5);
    if (q == 0) continue;  // all zeros already
    uint64_t* row = p.bits_.row(i);
    for (int w = 0; w < num_words; ++w) {
      if (q >= 65536) {
        row[w] = ~0ULL;
        continue;
      }
      SplitMix64 rng(derive_seed(seed, word_key(i, w)));
      uint64_t acc = 0;
      bool first = true;
      for (int bit = 0; bit < 16; ++bit) {
        if (((q >> bit) & 1) == 0 && first) continue;
        uint64_t r = rng.next();
        if (first) {
          acc = r;
          first = false;
        } else if ((q >> bit) & 1) {
          acc = r | acc;
        } else {
          acc = r & acc;
        }
      }
      row[w] = acc;
    }
  }
  return p;
}

PatternSet PatternSet::exhaustive(int num_pis) {
  if (num_pis > 16) {
    throw std::invalid_argument("exhaustive patterns limited to 16 PIs");
  }
  uint64_t total = 1ULL << num_pis;
  int words = static_cast<int>((total + 63) / 64);
  PatternSet p(num_pis, words);
  for (uint64_t m = 0; m < total; ++m) {
    for (int i = 0; i < num_pis; ++i) {
      if ((m >> i) & 1) {
        p.bits_.row(i)[m >> 6] |= 1ULL << (m & 63);
      }
    }
  }
  // For fewer than 64 patterns the tail bits would all replicate pattern 0
  // and skew every whole-word count, so the full pattern block is repeated
  // instead to keep probabilities exact.
  if (total < 64) {
    for (uint64_t m = total; m < 64; ++m) {
      uint64_t src = m % total;
      for (int i = 0; i < num_pis; ++i) {
        if ((p.bits_.row(i)[src >> 6] >> (src & 63)) & 1) {
          p.bits_.row(i)[0] |= 1ULL << m;
        }
      }
    }
  }
  return p;
}

void fill_golden_plane(const Network& net, const TopologyView& view,
                       const PatternSet& patterns, ValueArena& plane,
                       std::vector<const uint64_t*>& fanin) {
  const int W = patterns.num_words();
  for (int i = 0; i < net.num_pis(); ++i) {
    std::memcpy(plane.row(net.pis()[i]), patterns.column(i).data(),
                sizeof(uint64_t) * W);
  }
  for (NodeId id : view.topo()) {
    const Node& n = net.node(id);
    uint64_t* out = plane.row(id);
    switch (n.kind) {
      case NodeKind::kPi:
        break;
      case NodeKind::kConst0:
        std::memset(out, 0, sizeof(uint64_t) * W);
        break;
      case NodeKind::kConst1:
        std::memset(out, 0xFF, sizeof(uint64_t) * W);
        break;
      case NodeKind::kLogic: {
        fanin.clear();
        for (NodeId f : n.fanins) fanin.push_back(plane.row(f));
        eval_sop_words(n.sop, fanin.data(), W, out);
        break;
      }
    }
  }
}

Simulator::Simulator(const Network& net)
    : net_(net), view_(net.topology()) {}

void Simulator::run(const PatternSet& patterns) {
  if (patterns.num_pis() != net_.num_pis()) {
    throw std::logic_error("Simulator::run: PI count mismatch");
  }
  if (view_->structure_version() != net_.structure_version()) {
    view_ = net_.topology();
  }
  bool reshape = num_words_ != patterns.num_words() ||
                 golden_.rows() != net_.num_nodes();
  num_words_ = patterns.num_words();
  if (reshape) golden_.reset(net_.num_nodes(), num_words_);
  std::vector<const uint64_t*> fanin;
  fill_golden_plane(net_, *view_, patterns, golden_, fanin);
}

double Simulator::signal_probability(NodeId id) const {
  int64_t ones = popcount_words(golden_.row(id), num_words_, ~0ULL);
  return static_cast<double>(ones) / (64.0 * num_words_);
}

double Simulator::switching_activity(NodeId id) const {
  double p = signal_probability(id);
  return 2.0 * p * (1.0 - p);
}

}  // namespace apx
