#include "core/delay_ced.hpp"

#include <algorithm>
#include <random>

#include "sim/kernels.hpp"
#include "sim/rng.hpp"

namespace apx {

CoverageResult evaluate_delay_fault_coverage(
    const CedDesign& ced, const DelayCoverageOptions& options) {
  CoverageResult result;
  const Network& net = ced.design;
  std::vector<NodeId> sites = ced.functional_nodes;
  if (options.include_pi_stems) {
    sites.insert(sites.end(), net.pis().begin(), net.pis().end());
  }
  if (sites.empty()) return result;
  std::mt19937_64 rng(options.seed);
  TransitionSimulator sim(ced.design);

  const int W = options.words_per_fault;
  std::vector<uint64_t> err_row(W);
  for (int s = 0; s < options.num_fault_samples; ++s) {
    NodeId site = sites[bounded_pick(rng, sites.size())];
    TransitionFault fault{site, static_cast<bool>(rng() & 1)};
    PatternSet launch = PatternSet::random(net.num_pis(), W, rng());
    PatternSet capture = PatternSet::random(net.num_pis(), W, rng());
    sim.run(launch, capture);
    sim.inject(fault);
    const WordSpan z1 = sim.faulty_value(ced.error_pair.rail1);
    const WordSpan z2 = sim.faulty_value(ced.error_pair.rail2);
    std::fill(err_row.begin(), err_row.end(), 0);
    for (NodeId out : ced.functional_outputs) {
      accumulate_xor_or(err_row.data(), sim.value(out).data(),
                        sim.faulty_value(out).data(), W);
    }
    // The rails agree exactly where the checker flags the fault, so
    // detected = |err| - |(z1 ^ z2) & err|.
    const int64_t erroneous = popcount_words(err_row.data(), W, ~0ULL);
    result.erroneous += erroneous;
    result.detected +=
        erroneous - popcount_xor_and(z1.data(), z2.data(), err_row.data(), W,
                                     ~0ULL);
    result.runs += 64ll * W;
  }
  return result;
}

}  // namespace apx
