#include "core/masking.hpp"

#include "core/task_pool.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"

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
  MaskingResult result;
  const CedDesign& ced = design.ced;
  if (ced.functional_nodes.empty() || options.num_fault_samples <= 0) {
    return result;
  }
  FaultSimEngine engine(ced.design);
  // Per-slot counters and scratch rows, merged in slot order afterwards:
  // integer sums are exact, so totals are bit-identical for any thread
  // count.
  struct SlotCounts {
    int64_t raw_errors = 0;
    int64_t masked_errors = 0;
    std::vector<uint64_t> raw_row, masked_row;
  };
  std::vector<SlotCounts> slot(thread_count());
  auto count = [&](int, const FaultSpec&, const FaultView& v) {
    SlotCounts& c = slot[v.worker_slot()];
    const int W = v.num_words();
    c.raw_row.assign(static_cast<size_t>(W), 0);
    c.masked_row.assign(static_cast<size_t>(W), 0);
    for (size_t o = 0; o < ced.functional_outputs.size(); ++o) {
      NodeId y = ced.functional_outputs[o];
      NodeId m = design.masked_outputs[o];
      accumulate_xor_or(c.raw_row.data(), v.golden(y), v.faulty(y), W);
      // The corrected output is judged against the fault-free *raw*
      // function (the masked output equals it in fault-free operation).
      accumulate_xor_or(c.masked_row.data(), v.golden(y), v.faulty(m), W);
    }
    const uint64_t tail = v.word_mask(W - 1);
    c.raw_errors += popcount_words(c.raw_row.data(), W, tail);
    c.masked_errors += popcount_words(c.masked_row.data(), W, tail);
  };
  engine.run_campaign(
      options, FaultSimEngine::make_sampler(ced.functional_nodes, options),
      count);
  for (const SlotCounts& c : slot) {
    result.raw_errors += c.raw_errors;
    result.masked_errors += c.masked_errors;
  }
  result.runs =
      static_cast<int64_t>(options.num_fault_samples) * options.vectors();
  return result;
}

}  // namespace apx
