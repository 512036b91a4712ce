#include "reliability/reliability.hpp"

#include "core/task_pool.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"

namespace apx {

ReliabilityReport analyze_reliability(const Network& net,
                                      const ReliabilityOptions& options) {
  ReliabilityReport report;
  report.outputs.assign(net.num_pos(), {});
  std::vector<NodeId> sites;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) sites.push_back(id);
  }
  if (sites.empty() || net.num_pos() == 0 || options.num_fault_samples <= 0) {
    return report;
  }

  FaultSimEngine engine(net);
  CampaignOptions copt;
  copt.num_fault_samples = options.num_fault_samples;
  copt.words_per_fault = options.words_per_fault;
  copt.faults_per_batch = options.faults_per_batch;
  copt.num_threads = options.num_threads;
  copt.seed = options.seed;
  // Both passes replay the identical sample stream, so the fault-agnostic
  // accounting bodies below are shared; only the sampler changes with the
  // model. The single-stuck-at draw picks one of the 2N (node, polarity)
  // pairs, pair k being node k / 2 stuck at k & 1.
  FaultSimEngine::Sampler sampler;
  if (options.model == FaultModel::kSingleStuckAt) {
    sampler = [&sites](uint64_t sample_seed) {
      const uint64_t k = SplitMix64(sample_seed).next() % (2 * sites.size());
      return FaultSpec::stuck_at(sites[k / 2], (k & 1) != 0);
    };
  } else {
    copt.model = options.model;
    copt.sites_per_fault = options.sites_per_fault;
    copt.burst_vectors = options.burst_vectors;
    sampler = FaultSimEngine::make_sampler(options.model, sites, copt);
  }

  const int P = net.num_pos();
  const int slots = resolve_thread_option(options.num_threads);
  const int64_t runs = static_cast<int64_t>(options.num_fault_samples) *
                       options.words_per_fault * 64;

  // Lock-free accumulation: each pool slot owns a private row of exact
  // integer counters (strided to its slot index), merged in slot order
  // after the campaign. Integer sums are exact and commutative, so the
  // totals are bit-identical for any thread count / completion order —
  // the ordered merge is belt-and-braces for that contract.
  std::vector<int64_t> slot01(static_cast<size_t>(slots) * P, 0);
  std::vector<int64_t> slot10(static_cast<size_t>(slots) * P, 0);
  std::vector<int64_t> slot_any(slots, 0);

  // Pass 1: per-output directional error rates. The max-coverage statistic
  // needs the dominant directions, which are only known after this pass;
  // pass 2 replays the identical sample stream (the campaign's per-index
  // seed derivation makes the replay exact by construction).
  // Per-worker "some PO differs" rows: e01 | e10 == g ^ f, folded across
  // outputs by the accumulate kernel and counted once per sample.
  std::vector<std::vector<uint64_t>> any_scratch(slots);
  engine.run_campaign(copt, sampler, [&](int, const FaultSpec&,
                                         const FaultView& v) {
    const int slot = v.worker_slot();
    int64_t* c01 = &slot01[static_cast<size_t>(slot) * P];
    int64_t* c10 = &slot10[static_cast<size_t>(slot) * P];
    const int W = v.num_words();
    const uint64_t tail = v.word_mask(W - 1);
    std::vector<uint64_t>& any_row = any_scratch[slot];
    any_row.assign(static_cast<size_t>(W), 0);
    for (int o = 0; o < P; ++o) {
      NodeId drv = net.po(o).driver;
      const uint64_t* g = v.golden(drv);
      const uint64_t* f = v.faulty(drv);
      c01[o] += popcount_andnot(g, f, W, tail);  // ~g & f
      c10[o] += popcount_andnot(f, g, W, tail);  // g & ~f
      accumulate_xor_or(any_row.data(), g, f, W);
    }
    slot_any[slot] += popcount_words(any_row.data(), W, tail);
  });

  std::vector<int64_t> count01(P, 0), count10(P, 0);
  int64_t any_error = 0;
  for (int s = 0; s < slots; ++s) {  // ordered merge over slot index
    for (int o = 0; o < P; ++o) {
      count01[o] += slot01[static_cast<size_t>(s) * P + o];
      count10[o] += slot10[static_cast<size_t>(s) * P + o];
    }
    any_error += slot_any[s];
  }

  for (int o = 0; o < P; ++o) {
    report.outputs[o].rate_0_to_1 =
        static_cast<double>(count01[o]) / static_cast<double>(runs);
    report.outputs[o].rate_1_to_0 =
        static_cast<double>(count10[o]) / static_cast<double>(runs);
  }
  std::vector<ApproxDirection> dirs;
  for (const auto& p : report.outputs) dirs.push_back(p.dominant());

  // Pass 2, identical sample stream: count runs where some PO erred in its
  // dominant (protected) direction.
  std::vector<int64_t> slot_dominant(slots, 0);
  engine.run_campaign(copt, sampler, [&](int, const FaultSpec&,
                                         const FaultView& v) {
    const int slot = v.worker_slot();
    const int W = v.num_words();
    std::vector<uint64_t>& dom_row = any_scratch[slot];
    dom_row.assign(static_cast<size_t>(W), 0);
    for (int o = 0; o < P; ++o) {
      NodeId drv = net.po(o).driver;
      const uint64_t* g = v.golden(drv);
      const uint64_t* f = v.faulty(drv);
      if (dirs[o] == ApproxDirection::kZeroApprox) {
        accumulate_andnot_or(dom_row.data(), g, f, W);  // ~g & f
      } else {
        accumulate_andnot_or(dom_row.data(), f, g, W);  // g & ~f
      }
    }
    slot_dominant[slot] +=
        popcount_words(dom_row.data(), W, v.word_mask(W - 1));
  });
  int64_t dominant_detectable = 0;
  for (int s = 0; s < slots; ++s) dominant_detectable += slot_dominant[s];

  report.runs = runs;
  report.any_output_error_rate =
      static_cast<double>(any_error) / static_cast<double>(runs);
  report.max_ced_coverage =
      any_error > 0 ? static_cast<double>(dominant_detectable) /
                          static_cast<double>(any_error)
                    : 0.0;
  return report;
}

std::vector<ApproxDirection> choose_directions(const ReliabilityReport& r) {
  std::vector<ApproxDirection> dirs;
  dirs.reserve(r.outputs.size());
  for (const auto& p : r.outputs) dirs.push_back(p.dominant());
  return dirs;
}

}  // namespace apx
