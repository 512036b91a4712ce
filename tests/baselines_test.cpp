#include "baselines/parity.hpp"
#include "baselines/partial_duplication.hpp"

#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "core/task_pool.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

Network mapped_bench(const std::string& name) {
  return technology_map(quick_synthesis(make_benchmark(name)));
}

TEST(ParityTest, PredictorComputesOutputParity) {
  Network mapped = mapped_bench("rca4");
  Network pred = build_parity_predictor(mapped);
  ASSERT_EQ(pred.num_pos(), 1);
  Simulator sim_m(mapped);
  Simulator sim_p(pred);
  PatternSet patterns = PatternSet::random(mapped.num_pis(), 8, 77);
  sim_m.run(patterns);
  sim_p.run(patterns);
  for (int w = 0; w < 8; ++w) {
    uint64_t parity = 0;
    for (const PrimaryOutput& po : mapped.pos()) {
      parity ^= sim_m.value(po.driver)[w];
    }
    EXPECT_EQ(parity, sim_p.value(pred.po(0).driver)[w]) << w;
  }
}

TEST(ParityTest, NoFalseAlarms) {
  Network mapped = mapped_bench("rca4");
  CedDesign ced = build_parity_ced(mapped);
  Simulator sim(ced.design);
  sim.run(PatternSet::random(ced.design.num_pis(), 32, 5));
  const auto& z1 = sim.value(ced.error_pair.rail1);
  const auto& z2 = sim.value(ced.error_pair.rail2);
  for (size_t w = 0; w < z1.size(); ++w) EXPECT_EQ(z1[w] ^ z2[w], ~0ULL);
}

TEST(ParityTest, DetectsSingleOutputErrors) {
  // On a decoder exactly one output is hot; most single faults flip an odd
  // number of outputs, so parity coverage should be substantial.
  Network mapped = mapped_bench("dec38");
  CedDesign ced = build_parity_ced(mapped);
  CoverageOptions copt;
  copt.num_fault_samples = 300;
  CoverageResult cov = evaluate_ced_coverage(ced, copt);
  EXPECT_GT(cov.erroneous, 0);
  EXPECT_GT(cov.coverage(), 0.5);
}

TEST(ParityTest, OverheadIsRoughlyFullDuplication) {
  Network mapped = mapped_bench("cmp4");
  CedDesign ced = build_parity_ced(mapped);
  OverheadReport rep = measure_overheads(ced);
  // Paper reports ~106% average area overhead for parity prediction.
  EXPECT_GT(rep.area_overhead_pct(), 60.0);
}

TEST(PartialDuplicationTest, FullTargetDuplicatesEverything) {
  Network mapped = mapped_bench("cmp4");
  PartialDuplicationResult r = build_partial_duplication(mapped, 1.01);
  EXPECT_EQ(r.duplicated_pos.size(), static_cast<size_t>(mapped.num_pos()));
}

TEST(PartialDuplicationTest, LowTargetDuplicatesFewer) {
  Network mapped = mapped_bench("dec38");
  PartialDuplicationResult full = build_partial_duplication(mapped, 1.01);
  PartialDuplicationResult half = build_partial_duplication(mapped, 0.4);
  EXPECT_LT(half.duplicated_pos.size(), full.duplicated_pos.size());
  EXPECT_LT(half.ced.overhead_area(), full.ced.overhead_area());
  EXPECT_GE(half.estimated_coverage, 0.4);
}

TEST(PartialDuplicationTest, NoFalseAlarmsAndDetectsErrors) {
  Network mapped = mapped_bench("cmp4");
  PartialDuplicationResult r = build_partial_duplication(mapped, 0.9);
  Simulator sim(r.ced.design);
  sim.run(PatternSet::random(r.ced.design.num_pis(), 32, 6));
  const auto& z1 = sim.value(r.ced.error_pair.rail1);
  const auto& z2 = sim.value(r.ced.error_pair.rail2);
  for (size_t w = 0; w < z1.size(); ++w) EXPECT_EQ(z1[w] ^ z2[w], ~0ULL);

  CoverageOptions copt;
  copt.num_fault_samples = 300;
  CoverageResult cov = evaluate_ced_coverage(r.ced, copt);
  EXPECT_GT(cov.coverage(), 0.5);
}

TEST(PartialDuplicationTest, WireOnlyNetworkHasNoFaultSites) {
  // PIs wired straight to POs: there are no logic-node fault sites. The old
  // ranking loop computed rng() % 0 — integer division by zero (UB,
  // SIGFPE in practice) — before ever reaching the guarded histogram.
  Network net;
  net.set_name("wires");
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  net.add_po("x", a);
  net.add_po("y", b);
  net.check();

  PartialDuplicationResult r = build_partial_duplication(net, 0.9);
  EXPECT_EQ(r.estimated_coverage, 0.0);
  // With zero observed errors no prefix reaches the target: every PO is
  // duplicated.
  EXPECT_EQ(r.duplicated_pos.size(), 2u);
}

TEST(PartialDuplicationTest, SelectionIsThreadCountInvariant) {
  Network mapped = mapped_bench("dec38");
  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return build_partial_duplication(mapped, 0.7);
  };
  PartialDuplicationResult a = run(1);
  PartialDuplicationResult b = run(4);
  EXPECT_EQ(a.duplicated_pos, b.duplicated_pos);
  EXPECT_EQ(a.estimated_coverage, b.estimated_coverage);
  EXPECT_EQ(a.ced.design.num_nodes(), b.ced.design.num_nodes());
}

TEST(PartialDuplicationTest, CoverageTracksEstimate) {
  Network mapped = mapped_bench("dec38");
  PartialDuplicationResult r = build_partial_duplication(mapped, 0.7);
  CoverageOptions copt;
  copt.num_fault_samples = 500;
  CoverageResult cov = evaluate_ced_coverage(r.ced, copt);
  // Duplication detects every error visible at a duplicated output, so the
  // measured coverage should be near the selection-time estimate.
  EXPECT_NEAR(cov.coverage(), r.estimated_coverage, 0.15);
}

}  // namespace
}  // namespace apx
