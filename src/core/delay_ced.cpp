#include "core/delay_ced.hpp"

#include "core/task_pool.hpp"
#include "sim/kernels.hpp"

namespace apx {

uint64_t launched_vectors(const FaultView& view, const FaultSite& site,
                          int w) {
  const uint64_t* row = view.golden(site.node);
  // Launch vector of capture vector k is vector k - 1; vector 0 wraps to
  // the batch's last valid vector.
  const int last = view.num_vectors() - 1;
  const uint64_t carry =
      w > 0 ? row[w - 1] >> 63 : (row[last / 64] >> (last % 64)) & 1;
  const uint64_t before = (row[w] << 1) | carry;
  const uint64_t after = row[w];
  // Stuck-at-0 is slow-to-rise (launched where the site rises), stuck-at-1
  // slow-to-fall (launched where it falls).
  return site.stuck_value ? before & ~after : ~before & after;
}

CoverageResult evaluate_delay_fault_coverage(
    const CedDesign& ced, const DelayCoverageOptions& options) {
  CoverageResult result;
  const Network& net = ced.design;
  FaultSimEngine engine(net);
  // Live sites only: a PI stem with no fanout can never err, and a
  // campaign refuses dead sites.
  std::vector<NodeId> sites = ced.functional_nodes;
  if (options.include_pi_stems) {
    for (NodeId pi : net.pis()) {
      if (engine.is_live_site(pi, false)) sites.push_back(pi);
    }
  }
  if (sites.empty() || options.num_fault_samples <= 0) return result;
  const CampaignOptions campaign{
      .num_fault_samples = options.num_fault_samples,
      .words_per_fault = options.words_per_fault,
      .seed = options.seed};

  // Per-slot counters and scratch, merged in slot order afterwards: integer
  // sums are exact, so totals are bit-identical for any thread count.
  struct SlotCounts {
    int64_t erroneous = 0;
    int64_t detected = 0;
    std::vector<uint64_t> err;
  };
  std::vector<SlotCounts> slot(thread_count());
  // A slow-to-rise (slow-to-fall) site captures its stale 0 (1) on exactly
  // the vectors where it rises (falls), and its fault-free value on every
  // other vector. A combinational circuit evaluates each vector on its own,
  // so the capture is a stuck-at-0 (stuck-at-1) counted on the launched
  // vectors only.
  auto count = [&](int, const FaultSpec& f, const FaultView& v) {
    SlotCounts& c = slot[v.worker_slot()];
    const int W = v.num_words();
    c.err.assign(static_cast<size_t>(W), 0);
    for (NodeId out : ced.functional_outputs) {
      accumulate_xor_or(c.err.data(), v.golden(out), v.faulty(out), W);
    }
    for (int w = 0; w < W; ++w) c.err[w] &= launched_vectors(v, f.sites[0], w);
    // The rails agree exactly where the checker flags the fault, so
    // detected = |err| - |(z1 ^ z2) & err|.
    const uint64_t tail = v.word_mask(W - 1);
    const int64_t erroneous = popcount_words(c.err.data(), W, tail);
    c.erroneous += erroneous;
    c.detected += erroneous - popcount_xor_and(v.faulty(ced.error_pair.rail1),
                                               v.faulty(ced.error_pair.rail2),
                                               c.err.data(), W, tail);
  };
  engine.run_campaign(
      campaign, FaultSimEngine::make_sampler(std::move(sites), campaign),
      count);
  for (const SlotCounts& c : slot) {
    result.erroneous += c.erroneous;
    result.detected += c.detected;
  }
  result.runs =
      static_cast<int64_t>(options.num_fault_samples) * campaign.vectors();
  return result;
}

}  // namespace apx
