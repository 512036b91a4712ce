#include "core/logic_sharing.hpp"

#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

CedDesign make_design(double threshold, SharingReport* report = nullptr,
                      bool share = true) {
  Network net = make_benchmark("cmp4");
  Network opt = quick_synthesis(net);
  Network mapped = technology_map(opt);
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  ApproxOptions aopt;
  aopt.significance_threshold = threshold;
  ApproxResult r = synthesize_approximation(opt, dirs, aopt);
  Network checkgen = technology_map(r.approx);
  CedDesign ced = build_ced_design(mapped, checkgen, dirs);
  if (share) {
    SharingReport rep = apply_logic_sharing(ced);
    if (report != nullptr) *report = rep;
  }
  return ced;
}

TEST(LogicSharingTest, SharingReducesOrKeepsArea) {
  SharingReport rep;
  CedDesign shared = make_design(0.05, &rep);
  CedDesign unshared = make_design(0.05, nullptr, false);
  EXPECT_LE(shared.overhead_area(), unshared.overhead_area());
  EXPECT_EQ(rep.checkgen_area_after,
            static_cast<int>(shared.checkgen_nodes.size()));
  EXPECT_LE(rep.checkgen_area_after, rep.checkgen_area_before);
}

TEST(LogicSharingTest, SharedDesignStillNeverFalseAlarms) {
  CedDesign ced = make_design(0.05);
  Simulator sim(ced.design);
  sim.run(PatternSet::random(ced.design.num_pis(), 64, 9));
  const auto& z1 = sim.value(ced.error_pair.rail1);
  const auto& z2 = sim.value(ced.error_pair.rail2);
  for (size_t w = 0; w < z1.size(); ++w) {
    EXPECT_EQ(z1[w] ^ z2[w], ~0ULL);
  }
}

TEST(LogicSharingTest, SharedDesignRemainsValidNetwork) {
  CedDesign ced = make_design(0.05);
  ced.design.check();
  // Node partitions must stay within bounds after the remap.
  for (NodeId id : ced.functional_nodes) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, ced.design.num_nodes());
  }
  for (NodeId id : ced.checkgen_nodes) {
    ASSERT_LT(id, ced.design.num_nodes());
  }
  ASSERT_NE(ced.error_pair.rail1, kNullNode);
  ASSERT_NE(ced.error_pair.rail2, kNullNode);
}

TEST(LogicSharingTest, PerfectDuplicateMergesEntirely) {
  // If the check generator IS the original circuit, every checkgen node is
  // equivalent to a functional node and merges away.
  Network net = make_benchmark("c17");
  Network mapped = technology_map(quick_synthesis(net));
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(mapped, mapped, dirs);
  SharingOptions all;
  all.max_error_mass = 1.0;  // unlimited criticality budget
  SharingReport rep = apply_logic_sharing(ced, all);
  EXPECT_EQ(rep.checkgen_area_after, 0);
  EXPECT_GT(rep.merged_nodes, 0);
  // The fully shared design detects nothing (both copies fail together) in
  // the functional cone, but it must still not false-alarm.
  Simulator sim(ced.design);
  sim.run(PatternSet::random(ced.design.num_pis(), 16, 4));
  const auto& z1 = sim.value(ced.error_pair.rail1);
  const auto& z2 = sim.value(ced.error_pair.rail2);
  for (size_t w = 0; w < z1.size(); ++w) EXPECT_EQ(z1[w] ^ z2[w], ~0ULL);
}

TEST(LogicSharingTest, SharingTradesCoverage) {
  // Coverage with sharing must not exceed coverage without (statistically:
  // same seeds, same fault model).
  CedDesign shared = make_design(0.05);
  CedDesign unshared = make_design(0.05, nullptr, false);
  CoverageOptions copt;
  copt.num_fault_samples = 400;
  double cov_shared = evaluate_ced_coverage(shared, copt).coverage();
  double cov_unshared = evaluate_ced_coverage(unshared, copt).coverage();
  EXPECT_LE(cov_shared, cov_unshared + 0.05);
}

// Exact results recorded from the serial Simulator::inject criticality
// estimate: the engine-backed estimate must pick the same merges at every
// error-mass budget.
TEST(LogicSharingPinTest, MergesReproduceRecordedCounts) {
  const double budgets[] = {0.05, 0.10, 0.25, 1.0};
  const int merged[] = {6, 11, 19, 35};
  const int area_after[] = {29, 24, 16, 0};
  for (int k = 0; k < 4; ++k) {
    CedDesign ced = make_design(0.05, nullptr, false);
    SharingOptions opt;
    opt.max_error_mass = budgets[k];
    SharingReport rep = apply_logic_sharing(ced, opt);
    EXPECT_EQ(rep.merged_nodes, merged[k]) << "budget " << budgets[k];
    EXPECT_EQ(rep.checkgen_area_after, area_after[k])
        << "budget " << budgets[k];
  }
  Network mapped = technology_map(quick_synthesis(make_benchmark("c17")));
  std::vector<ApproxDirection> dirs(mapped.num_pos(),
                                    ApproxDirection::kZeroApprox);
  for (double budget : {0.10, 0.30}) {
    CedDesign ced = build_ced_design(mapped, mapped, dirs);
    SharingOptions opt;
    opt.max_error_mass = budget;
    SharingReport rep = apply_logic_sharing(ced, opt);
    EXPECT_EQ(rep.merged_nodes, budget < 0.2 ? 2 : 6)
        << "c17 budget " << budget;
    EXPECT_EQ(rep.checkgen_area_after, budget < 0.2 ? 13 : 9)
        << "c17 budget " << budget;
  }
}

}  // namespace
}  // namespace apx
