#include "core/masking.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "sim/fault_engine.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

MaskingDesign perfect_masking_design(const std::vector<ApproxDirection>& dirs,
                                     const Network& net) {
  Network mapped = technology_map(quick_synthesis(net));
  return build_masking_design(mapped, mapped, dirs);
}

TEST(MaskingTest, FaultFreeMaskedOutputsEqualRawOutputs) {
  Network net = make_benchmark("cmp4");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  dirs[1] = ApproxDirection::kOneApprox;  // exercise both masking gates
  MaskingDesign d = perfect_masking_design(dirs, net);
  Simulator sim(d.ced.design);
  sim.run(PatternSet::random(d.ced.design.num_pis(), 32, 11));
  for (size_t o = 0; o < d.masked_outputs.size(); ++o) {
    const auto& raw = sim.value(d.ced.functional_outputs[o]);
    const auto& masked = sim.value(d.masked_outputs[o]);
    EXPECT_EQ(raw, masked) << "output " << o;
  }
}

TEST(MaskingTest, PerfectCheckFunctionMasksAllProtectedErrors) {
  // With X == Y exactly, every 0->1 error at a 0-approx-protected output is
  // masked (Y* = Y_faulty AND X = 0 whenever golden Y = 0).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  net.add_po("y", net.add_and(net.add_and(a, b), c));
  Network mapped = technology_map(net);
  MaskingDesign d =
      build_masking_design(mapped, mapped, {ApproxDirection::kZeroApprox});

  NodeId y = d.ced.functional_outputs[0];
  NodeId m = d.masked_outputs[0];
  std::vector<FaultSpec> faults;
  for (NodeId site : d.ced.functional_nodes) {
    // Stuck-at-1 creates 0->1 errors.
    faults.push_back(FaultSpec::stuck_at(site, true));
  }
  FaultSimEngine engine(d.ced.design);
  engine.run_batch(
      PatternSet::exhaustive(3), faults,
      [&](int, const FaultSpec& f, const FaultView& v) {
        uint64_t golden = v.golden(y)[0];
        uint64_t masked_err = (golden ^ v.faulty(m)[0]) & ~golden;
        EXPECT_EQ(masked_err & 0xFF, 0u)
            << "unmasked 0->1 error at site " << f.sites[0].node;
      });
}

TEST(MaskingTest, SynthesizedCheckerReducesErrorRate) {
  Network net = make_benchmark("dec38");
  Network opt = quick_synthesis(net);
  Network mapped = technology_map(opt);
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  ApproxOptions aopt;
  aopt.significance_threshold = 0.05;
  ApproxResult r = synthesize_approximation(opt, dirs, aopt);
  ASSERT_TRUE(r.all_verified());
  MaskingDesign d =
      build_masking_design(mapped, technology_map(r.approx), dirs);
  CoverageOptions copt;
  copt.num_fault_samples = 400;
  MaskingResult mr = evaluate_masking(d, copt);
  EXPECT_GT(mr.runs, 0);
  EXPECT_LE(mr.masked_errors, mr.raw_errors);
  // A decoder's outputs are overwhelmingly 0, so 0-approx masking should
  // correct a visible share of the errors.
  EXPECT_GT(mr.masking_effectiveness(), 0.2);
}

TEST(MaskingTest, MaskedOutputsAreProperPos) {
  Network net = make_benchmark("c17");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kOneApprox);
  MaskingDesign d = perfect_masking_design(dirs, net);
  // Two new POs named "<po>_masked".
  int masked_pos = 0;
  for (const PrimaryOutput& po : d.ced.design.pos()) {
    if (po.name.find("_masked") != std::string::npos) ++masked_pos;
  }
  EXPECT_EQ(masked_pos, net.num_pos());
  d.ced.design.check();
}

TEST(MaskingTest, RejectsNonPositiveWordCounts) {
  Network net = make_benchmark("c17");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  MaskingDesign d = perfect_masking_design(dirs, net);
  for (int words : {0, -1}) {
    CoverageOptions copt;
    copt.words_per_fault = words;
    EXPECT_THROW(evaluate_masking(d, copt), std::invalid_argument)
        << "words_per_fault " << words;
  }
}

MaskingDesign cmp4_masking_design() {
  Network net = make_benchmark("cmp4");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  dirs[1] = ApproxDirection::kOneApprox;
  return perfect_masking_design(dirs, net);
}

// Exact counts recorded from the campaign form of evaluate_masking: sample
// i's fault is drawn from derive_seed(seed, i) by the stock single-stuck-at
// sampler, batch b's patterns from derive_seed(seed ^ kPatternStream, b).
TEST(MaskingPinTest, RawAndMaskedErrorsReproduceRecordedCounts) {
  const MaskingDesign d = cmp4_masking_design();
  CoverageOptions copt;
  copt.num_fault_samples = 300;
  copt.words_per_fault = 3;
  MaskingResult mr = evaluate_masking(d, copt);
  EXPECT_EQ(mr.runs, 57600);
  EXPECT_EQ(mr.raw_errors, 11119);
  EXPECT_EQ(mr.masked_errors, 5813);

  copt.seed = 0xC0FFEE;
  copt.words_per_fault = 1;
  MaskingResult mr2 = evaluate_masking(d, copt);
  EXPECT_EQ(mr2.runs, 19200);
  EXPECT_EQ(mr2.raw_errors, 3329);
  EXPECT_EQ(mr2.masked_errors, 1502);
}

// Masking is an ordinary campaign: every CoverageOptions field steers it,
// and the counts are the same on any number of workers.
TEST(MaskingTest, EveryOptionIsBitIdenticalAcrossThreadCounts) {
  const MaskingDesign d = cmp4_masking_design();
  CoverageOptions base;
  base.num_fault_samples = 200;
  base.faults_per_batch = 16;
  std::vector<CoverageOptions> inputs(4, base);
  inputs[1].vectors_per_fault = 100;  // tail-masked final word
  inputs[2].model = FaultModel::kMultiStuckAt;
  inputs[2].sites_per_fault = 3;
  inputs[3].model = FaultModel::kTransientBurst;
  inputs[3].burst_vectors = 24;
  std::vector<MaskingResult> at_one;
  for (const CoverageOptions& copt : inputs) {
    auto run = [&](int threads) {
      const ScopedThreadCount limit(threads);
      return evaluate_masking(d, copt);
    };
    const MaskingResult r1 = run(1);
    EXPECT_EQ(r1.runs, 200LL * copt.vectors());
    EXPECT_GT(r1.raw_errors, 0);
    EXPECT_LE(r1.masked_errors, r1.raw_errors);
    for (int threads : {2, 4}) {
      const MaskingResult rn = run(threads);
      EXPECT_EQ(rn.runs, r1.runs) << threads << " threads";
      EXPECT_EQ(rn.raw_errors, r1.raw_errors) << threads << " threads";
      EXPECT_EQ(rn.masked_errors, r1.masked_errors) << threads << " threads";
    }
    at_one.push_back(r1);
  }
  // Each field changes the sampled campaign.
  for (size_t i = 1; i < at_one.size(); ++i) {
    EXPECT_NE(at_one[i].raw_errors, at_one[0].raw_errors) << "input " << i;
  }
}

// One golden simulation per pattern batch, not per sample: 300 samples in
// batches of 64 are five batches.
TEST(MaskingTest, CampaignSimulatesGoldenOncePerBatch) {
  const MaskingDesign d = cmp4_masking_design();
  CoverageOptions copt;
  copt.num_fault_samples = 300;
  trace::reset();
  trace::set_trace_enabled(true);
  evaluate_masking(d, copt);
  trace::set_trace_enabled(false);
  const int64_t batches = trace::counter("faultsim.batches").value();
  const int64_t sims = trace::counter("faultsim.fault_sims").value();
  trace::reset();
  EXPECT_EQ(batches, 5);
  EXPECT_EQ(sims, 300);
}

}  // namespace
}  // namespace apx
