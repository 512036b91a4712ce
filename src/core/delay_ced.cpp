#include "core/delay_ced.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace apx {

CoverageResult evaluate_delay_fault_coverage(
    const CedDesign& ced, const DelayCoverageOptions& options) {
  if (options.words_per_fault <= 0) {
    throw std::invalid_argument(
        "evaluate_delay_fault_coverage: words_per_fault must be positive");
  }
  CoverageResult result;
  const Network& net = ced.design;
  std::vector<NodeId> sites = ced.functional_nodes;
  if (options.include_pi_stems) {
    sites.insert(sites.end(), net.pis().begin(), net.pis().end());
  }
  if (sites.empty()) return result;
  std::mt19937_64 rng(options.seed);
  FaultSimEngine engine(net);
  Simulator launch(net);

  const int W = options.words_per_fault;
  std::vector<uint64_t> err_row(W);
  auto count = [&](int, const FaultSpec& f, const FaultView& v) {
    const NodeId site = f.sites[0].node;
    const bool slow_to_rise = !f.sites[0].stuck_value;
    std::fill(err_row.begin(), err_row.end(), 0);
    for (NodeId out : ced.functional_outputs) {
      accumulate_xor_or(err_row.data(), v.golden(out), v.faulty(out), W);
    }
    // Keep only the launched vectors: those where the site makes the slow
    // transition (rises for slow-to-rise, falls for slow-to-fall).
    const WordSpan before = launch.value(site);
    const uint64_t* after = v.golden(site);
    for (int w = 0; w < W; ++w) {
      err_row[w] &= slow_to_rise ? ~before[w] & after[w]
                                 : before[w] & ~after[w];
    }
    // The rails agree exactly where the checker flags the fault, so
    // detected = |err| - |(z1 ^ z2) & err|.
    const int64_t erroneous = popcount_words(err_row.data(), W, ~0ULL);
    result.erroneous += erroneous;
    result.detected +=
        erroneous - popcount_xor_and(v.faulty(ced.error_pair.rail1),
                                     v.faulty(ced.error_pair.rail2),
                                     err_row.data(), W, ~0ULL);
  };
  // A slow-to-rise (slow-to-fall) site captures its stale 0 (1) on exactly
  // the vectors where it rises (falls), and its fault-free value on every
  // other vector. A combinational circuit evaluates each vector on its own,
  // so the capture is a stuck-at-0 (stuck-at-1) counted on the launched
  // vectors only. Draws per sample: site, polarity, launch seed, capture
  // seed.
  for (int s = 0; s < options.num_fault_samples; ++s) {
    const NodeId site = sites[bounded_pick(rng, sites.size())];
    const bool slow_to_rise = (rng() & 1) != 0;
    launch.run(PatternSet::random(net.num_pis(), W, rng()));
    PatternSet capture = PatternSet::random(net.num_pis(), W, rng());
    engine.run_batch(capture, {FaultSpec::stuck_at(site, !slow_to_rise)},
                     count);
    result.runs += 64ll * W;
  }
  return result;
}

}  // namespace apx
