#include "core/masking.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/rng.hpp"

namespace apx {

MaskingDesign build_masking_design(
    const Network& original, const Network& checkgen,
    const std::vector<ApproxDirection>& dirs) {
  MaskingDesign design;
  design.ced = build_ced_design(original, checkgen, dirs);
  Network& net = design.ced.design;

  // Recover each output's check-symbol signal X from the checker gates.
  // build_approx_checker emits, in PO order, [NOT(Y), AND(X, Y)] for a
  // 0-approximation and [NOR(X, Y)] for a 1-approximation (rail1 is Y
  // itself), before any two-rail tree cells — so a single forward scan of
  // checker_nodes yields X as the first fanin of each output's gate.
  std::vector<NodeId> check_outputs(original.num_pos(), kNullNode);
  {
    size_t idx = 0;
    const auto& nodes = design.ced.checker_nodes;
    for (int o = 0; o < original.num_pos(); ++o) {
      if (dirs[o] == ApproxDirection::kZeroApprox) {
        // Gates emitted: NOT(Y) then AND(X, Y).
        NodeId and_gate = nodes.at(idx + 1);
        check_outputs[o] = net.node(and_gate).fanins[0];
        idx += 2;
      } else {
        // Gates emitted: NOR(X, Y) only (rail1 is Y itself).
        NodeId nor_gate = nodes.at(idx);
        check_outputs[o] = net.node(nor_gate).fanins[0];
        idx += 1;
      }
    }
  }

  for (int o = 0; o < original.num_pos(); ++o) {
    NodeId y = design.ced.functional_outputs[o];
    NodeId x = check_outputs[o];
    NodeId corrected =
        dirs[o] == ApproxDirection::kZeroApprox
            ? net.add_and(y, x)   // X=0 forces the output low: masks 0->1
            : net.add_or(y, x);   // X=1 forces the output high: masks 1->0
    design.masked_outputs.push_back(corrected);
    design.masking_nodes.push_back(corrected);
    net.add_po(original.po(o).name + "_masked", corrected);
  }
  net.check();
  return design;
}

MaskingResult evaluate_masking(const MaskingDesign& design,
                               const CoverageOptions& options) {
  if (options.words_per_fault <= 0) {
    throw std::invalid_argument(
        "evaluate_masking: words_per_fault must be positive");
  }
  // Only the sample count, word count and seed steer this campaign;
  // refuse settings it would silently ignore.
  const CoverageOptions defaults;
  auto reject = [](const char* field) {
    throw std::invalid_argument(std::string("evaluate_masking: ") + field +
                                " is not supported");
  };
  if (options.vectors_per_fault != defaults.vectors_per_fault) {
    reject("vectors_per_fault");
  }
  if (options.model != defaults.model) reject("model");
  if (options.sites_per_fault != defaults.sites_per_fault) {
    reject("sites_per_fault");
  }
  if (options.burst_vectors != defaults.burst_vectors) reject("burst_vectors");
  if (options.faults_per_batch != defaults.faults_per_batch) {
    reject("faults_per_batch");
  }
  MaskingResult result;
  const CedDesign& ced = design.ced;
  if (ced.functional_nodes.empty()) return result;
  std::mt19937_64 rng(options.seed);
  FaultSimEngine engine(ced.design);

  const int W = options.words_per_fault;
  std::vector<uint64_t> raw_row(W), masked_row(W);
  auto count = [&](int, const FaultSpec&, const FaultView& v) {
    std::fill(raw_row.begin(), raw_row.end(), 0);
    std::fill(masked_row.begin(), masked_row.end(), 0);
    for (size_t o = 0; o < ced.functional_outputs.size(); ++o) {
      NodeId y = ced.functional_outputs[o];
      NodeId m = design.masked_outputs[o];
      accumulate_xor_or(raw_row.data(), v.golden(y), v.faulty(y), W);
      // The corrected output is judged against the fault-free *raw*
      // function (the masked output equals it in fault-free operation).
      accumulate_xor_or(masked_row.data(), v.golden(y), v.faulty(m), W);
    }
    result.raw_errors += popcount_words(raw_row.data(), W, ~0ULL);
    result.masked_errors += popcount_words(masked_row.data(), W, ~0ULL);
  };
  // One fault per sample on its own patterns, drawn in the order site,
  // polarity, pattern seed.
  for (int s = 0; s < options.num_fault_samples; ++s) {
    NodeId site =
        ced.functional_nodes[bounded_pick(rng, ced.functional_nodes.size())];
    const bool stuck_value = (rng() & 1) != 0;
    PatternSet patterns = PatternSet::random(ced.design.num_pis(), W, rng());
    engine.run_batch(patterns, {FaultSpec::stuck_at(site, stuck_value)},
                     count);
    result.runs += 64ll * W;
  }
  return result;
}

}  // namespace apx
