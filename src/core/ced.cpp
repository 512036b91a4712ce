#include "core/ced.hpp"

#include <stdexcept>

#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

// Appends `src` into `dest` over the shared PI list, recording the new ids
// of src's logic nodes into `added` and returning the full node map.
std::vector<NodeId> append_circuit(Network& dest, const Network& src,
                                   const std::vector<NodeId>& pi_map,
                                   std::vector<NodeId>* added) {
  int before = dest.num_nodes();
  std::vector<NodeId> map = src.append_into(dest, pi_map);
  if (added != nullptr) {
    for (NodeId id = before; id < dest.num_nodes(); ++id) {
      if (dest.node(id).kind == NodeKind::kLogic) added->push_back(id);
    }
  }
  return map;
}

void record_new_logic(const Network& net, int from, std::vector<NodeId>* out) {
  for (NodeId id = from; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) out->push_back(id);
  }
}

}  // namespace

CedDesign build_ced_design(const Network& original, const Network& checkgen,
                           const std::vector<ApproxDirection>& directions) {
  if (original.num_pis() != checkgen.num_pis() ||
      original.num_pos() != checkgen.num_pos() ||
      directions.size() != static_cast<size_t>(original.num_pos())) {
    throw std::logic_error("build_ced_design: interface mismatch");
  }
  CedDesign ced;
  ced.design.set_name(original.name() + "_ced");
  std::vector<NodeId> pi_map;
  for (NodeId pi : original.pis()) {
    pi_map.push_back(ced.design.add_pi(original.node(pi).name));
  }
  std::vector<NodeId> omap =
      append_circuit(ced.design, original, pi_map, &ced.functional_nodes);
  std::vector<NodeId> cmap =
      append_circuit(ced.design, checkgen, pi_map, &ced.checkgen_nodes);

  for (int o = 0; o < original.num_pos(); ++o) {
    NodeId driver = omap[original.po(o).driver];
    ced.functional_outputs.push_back(driver);
    ced.design.add_po(original.po(o).name, driver);
  }

  int checker_start = ced.design.num_nodes();
  std::vector<TwoRail> pairs;
  for (int o = 0; o < original.num_pos(); ++o) {
    pairs.push_back(build_approx_checker(ced.design,
                                         omap[original.po(o).driver],
                                         cmap[checkgen.po(o).driver],
                                         directions[o]));
  }
  ced.error_pair = build_two_rail_tree(ced.design, std::move(pairs));
  record_new_logic(ced.design, checker_start, &ced.checker_nodes);

  ced.design.add_po("err_rail1", ced.error_pair.rail1);
  ced.design.add_po("err_rail2", ced.error_pair.rail2);
  ced.design.check();
  return ced;
}

CedDesign build_duplication_ced(const Network& original,
                                const Network& predictor,
                                const std::vector<int>& checked_pos) {
  if (original.num_pis() != predictor.num_pis()) {
    throw std::logic_error("build_duplication_ced: PI mismatch");
  }
  CedDesign ced;
  ced.design.set_name(original.name() + "_dup_ced");
  std::vector<NodeId> pi_map;
  for (NodeId pi : original.pis()) {
    pi_map.push_back(ced.design.add_pi(original.node(pi).name));
  }
  std::vector<NodeId> omap =
      append_circuit(ced.design, original, pi_map, &ced.functional_nodes);
  std::vector<NodeId> pmap =
      append_circuit(ced.design, predictor, pi_map, &ced.checkgen_nodes);

  for (int o = 0; o < original.num_pos(); ++o) {
    NodeId driver = omap[original.po(o).driver];
    ced.functional_outputs.push_back(driver);
    ced.design.add_po(original.po(o).name, driver);
  }

  int checker_start = ced.design.num_nodes();
  std::vector<TwoRail> pairs;
  for (int po : checked_pos) {
    pairs.push_back(build_equality_checker(ced.design,
                                           omap[original.po(po).driver],
                                           pmap[predictor.po(po).driver]));
  }
  ced.error_pair = build_two_rail_tree(ced.design, std::move(pairs));
  record_new_logic(ced.design, checker_start, &ced.checker_nodes);

  ced.design.add_po("err_rail1", ced.error_pair.rail1);
  ced.design.add_po("err_rail2", ced.error_pair.rail2);
  ced.design.check();
  return ced;
}

CoverageResult evaluate_ced_coverage(const CedDesign& ced,
                                     const CoverageOptions& options) {
  trace::Span span("ced.coverage");
  CoverageResult result;
  if (ced.functional_nodes.empty() || options.num_fault_samples <= 0) {
    return result;
  }
  FaultSimEngine engine(ced.design);
  CampaignOptions copt;
  copt.num_fault_samples = options.num_fault_samples;
  copt.words_per_fault = options.words_per_fault;
  copt.vectors_per_fault = options.vectors_per_fault;
  copt.faults_per_batch = options.faults_per_batch;
  copt.seed = options.seed;
  copt.model = options.model;
  copt.sites_per_fault = options.sites_per_fault;
  copt.burst_vectors = options.burst_vectors;

  // Per-sample slots: pool workers write disjoint rows, reduced in sample
  // order afterwards (ordered merge), so counts are bit-identical for any
  // thread count.
  struct Row {
    int64_t erroneous = 0;
    int64_t detected = 0;
  };
  std::vector<Row> rows(options.num_fault_samples);
  // Per-worker "any functional output differs" rows, reduced by the
  // popcount kernels. The tail mask keeps padding bits of a partial final
  // word (when vectors_per_fault is not a multiple of 64) out of the
  // counts. The rails agree exactly where the checker flags an error, so
  // detected = |err| - |(z1 ^ z2) & err|. The accounting is identical for
  // every fault model.
  std::vector<std::vector<uint64_t>> err_scratch(thread_count());
  auto account = [&](int i, const FaultSpec&, const FaultView& v) {
    Row& row = rows[i];
    const int W = v.num_words();
    const uint64_t tail = v.word_mask(W - 1);
    std::vector<uint64_t>& err = err_scratch[v.worker_slot()];
    err.assign(static_cast<size_t>(W), 0);
    for (NodeId out : ced.functional_outputs) {
      accumulate_xor_or(err.data(), v.golden(out), v.faulty(out), W);
    }
    const uint64_t* z1 = v.faulty(ced.error_pair.rail1);
    const uint64_t* z2 = v.faulty(ced.error_pair.rail2);
    const int64_t erroneous = popcount_words(err.data(), W, tail);
    row.erroneous += erroneous;
    row.detected += erroneous - popcount_xor_and(z1, z2, err.data(), W, tail);
  };
  engine.run_campaign(
      copt,
      FaultSimEngine::make_sampler(options.model, ced.functional_nodes, copt),
      account);
  for (const Row& row : rows) {
    result.erroneous += row.erroneous;
    result.detected += row.detected;
  }
  const int64_t vectors = options.vectors_per_fault > 0
                              ? options.vectors_per_fault
                              : static_cast<int64_t>(options.words_per_fault) * 64;
  result.runs = static_cast<int64_t>(options.num_fault_samples) * vectors;
  return result;
}

OverheadReport measure_overheads(const CedDesign& ced, int sim_words,
                                 uint64_t seed) {
  trace::Span span("ced.overheads");
  OverheadReport report;
  report.functional_area = ced.functional_area();
  report.checkgen_area = static_cast<int>(ced.checkgen_nodes.size());
  report.checker_area = static_cast<int>(ced.checker_nodes.size());
  report.overhead_area = ced.overhead_area();

  Simulator sim(ced.design);
  sim.run(PatternSet::random(ced.design.num_pis(), sim_words, seed));
  for (NodeId id : ced.functional_nodes) {
    report.functional_activity += sim.switching_activity(id);
  }
  for (NodeId id : ced.checkgen_nodes) {
    report.checkgen_activity += sim.switching_activity(id);
  }
  for (NodeId id : ced.checker_nodes) {
    report.checker_activity += sim.switching_activity(id);
  }
  report.overhead_activity = report.checkgen_activity + report.checker_activity;
  return report;
}

}  // namespace apx
