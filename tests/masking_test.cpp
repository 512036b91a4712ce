#include "core/masking.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
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

// evaluate_masking reads only the sample count, word count, seed and thread
// cap; each field it would ignore is refused by name.
void expect_rejected(void (*set)(CoverageOptions&), const std::string& field) {
  Network net = make_benchmark("c17");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  MaskingDesign d = perfect_masking_design(dirs, net);
  CoverageOptions copt;
  copt.num_fault_samples = 4;
  set(copt);
  try {
    evaluate_masking(d, copt);
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(MaskingTest, RejectsVectorsPerFault) {
  expect_rejected([](CoverageOptions& o) { o.vectors_per_fault = 100; },
                  "vectors_per_fault");
}

TEST(MaskingTest, RejectsNonSingleStuckAtModel) {
  expect_rejected([](CoverageOptions& o) { o.model = FaultModel::kMultiStuckAt; },
                  "model");
  expect_rejected(
      [](CoverageOptions& o) { o.model = FaultModel::kTransientBurst; },
      "model");
}

TEST(MaskingTest, RejectsSitesPerFault) {
  expect_rejected([](CoverageOptions& o) { o.sites_per_fault = 3; },
                  "sites_per_fault");
}

TEST(MaskingTest, RejectsBurstVectors) {
  expect_rejected([](CoverageOptions& o) { o.burst_vectors = 8; },
                  "burst_vectors");
}

TEST(MaskingTest, RejectsFaultsPerBatch) {
  expect_rejected([](CoverageOptions& o) { o.faults_per_batch = 16; },
                  "faults_per_batch");
}

// Exact counts recorded from the serial Simulator::inject implementation:
// the engine-backed evaluation must reproduce them bit for bit (same draws
// per sample: site, polarity, pattern seed).
TEST(MaskingPinTest, RawAndMaskedErrorsReproduceRecordedCounts) {
  Network net = make_benchmark("cmp4");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  dirs[1] = ApproxDirection::kOneApprox;
  MaskingDesign d = perfect_masking_design(dirs, net);
  CoverageOptions copt;
  copt.num_fault_samples = 300;
  copt.words_per_fault = 3;
  MaskingResult mr = evaluate_masking(d, copt);
  EXPECT_EQ(mr.runs, 57600);
  EXPECT_EQ(mr.raw_errors, 9410);
  EXPECT_EQ(mr.masked_errors, 4417);

  copt.seed = 0xC0FFEE;
  copt.words_per_fault = 1;
  MaskingResult mr2 = evaluate_masking(d, copt);
  EXPECT_EQ(mr2.runs, 19200);
  EXPECT_EQ(mr2.raw_errors, 3320);
  EXPECT_EQ(mr2.masked_errors, 1839);
}

}  // namespace
}  // namespace apx
