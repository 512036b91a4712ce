#include "core/observability.hpp"

#include "core/approx_types.hpp"
#include "sim/kernels.hpp"

namespace apx {

std::string to_string(NodeType t) {
  switch (t) {
    case NodeType::kZero:
      return "0";
    case NodeType::kOne:
      return "1";
    case NodeType::kEx:
      return "EX";
    case NodeType::kDc:
      return "DC";
  }
  return "?";
}

std::string to_string(ApproxDirection d) {
  return d == ApproxDirection::kZeroApprox ? "0-approx" : "1-approx";
}

ObservabilityAnalysis::ObservabilityAnalysis(const Network& net, int words,
                                             uint64_t seed) {
  Simulator sim(net);
  sim.run(PatternSet::random(net.num_pis(), words, seed));

  obs_.resize(net.num_nodes());
  sig_prob_.resize(net.num_nodes(), 0.0);
  const double total_patterns = 64.0 * words;

  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    sig_prob_[id] = sim.signal_probability(id);
    const Node& n = net.node(id);
    if (n.kind != NodeKind::kLogic) continue;
    obs_[id].resize(n.fanins.size());

    std::vector<const uint64_t*> fanin;
    fanin.reserve(n.fanins.size());
    for (NodeId f : n.fanins) fanin.push_back(sim.value(f).data());
    const WordSpan golden = sim.value(id);

    // The node re-evaluated with fanin k's row complemented.
    std::vector<uint64_t> complemented(words), flipped(words);
    for (size_t k = 0; k < n.fanins.size(); ++k) {
      const uint64_t* x = fanin[k];
      for (int w = 0; w < words; ++w) complemented[w] = ~x[w];
      fanin[k] = complemented.data();
      eval_sop_words(n.sop, fanin.data(), words, flipped.data());
      fanin[k] = x;
      // diff = golden ^ flipped splits over fanin k's value x as
      // c1 = |diff & x| and c0 = |diff| - c1, with |diff| by the
      // directional identity |a ^ b| = |~a & b| + |a & ~b|.
      const uint64_t* g = golden.data();
      const uint64_t* fl = flipped.data();
      int64_t c1 = popcount_xor_and(g, fl, x, words, ~0ULL);
      int64_t c0 = popcount_andnot(g, fl, words, ~0ULL) +
                   popcount_andnot(fl, g, words, ~0ULL) - c1;
      obs_[id][k].obs0 = static_cast<double>(c0) / total_patterns;
      obs_[id][k].obs1 = static_cast<double>(c1) / total_patterns;
    }
  }
}

}  // namespace apx
