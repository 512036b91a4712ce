// Bit-identity across SIMD dispatch tiers (the tentpole guarantee: results
// are identical for any thread count x any SIMD width).
//
// Every kernel tier computes the same pure bitwise function over the same
// words, so golden and faulty value planes must be *byte-identical* whether
// evaluated 64, 256, or 512 bits per step — and everything derived from
// them (coverage counts, fault-detection reports, the synthesis screening
// prescreen and the approximate networks it shapes) must not move at all.
// The suite cycles every tier the host supports through the in-process
// simd::set_tier hook; CI additionally runs it once per APX_SIMD value so
// the env-var dispatch path is exercised too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/parity.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
#include "core/ced.hpp"
#include "core/pipeline.hpp"
#include "core/task_pool.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "network/bench_format.hpp"
#include "reference_sim.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Restores auto dispatch after each test so tier forcing cannot leak into
// other suites in the same binary.
class SimdIdentityTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_tier(simd::best_supported_tier()); }
};

// Full golden + faulty value planes of one injected fault, copied out of
// the engine's arenas word by word so the comparison is content-based (byte
// identity of every node row, including sub-lane tails at odd word counts).
// Each plane is also checked against the brute-force reference simulation
// at the same tier.
struct Planes {
  Plane golden;
  Plane faulty;
};

Planes capture_planes(const Network& net, int words, uint64_t seed) {
  const PatternSet patterns = PatternSet::random(net.num_pis(), words, seed);
  // A mid-circuit fault site with real fanout: the last logic node's first
  // fanin (deterministic for a fixed benchmark).
  NodeId site = kNullNode;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) site = id;
  }
  if (!net.node(site).fanins.empty()) site = net.node(site).fanins[0];
  const FaultSpec spec = FaultSpec::stuck_at(site, true);
  Planes p;
  FaultSimEngine engine(net);
  engine.run_batch(patterns, {spec},
                   [&](int, const FaultSpec&, const FaultView& v) {
                     for (NodeId id = 0; id < net.num_nodes(); ++id) {
                       p.golden.emplace_back(v.golden(id),
                                             v.golden(id) + words);
                       p.faulty.emplace_back(v.faulty(id),
                                             v.faulty(id) + words);
                     }
                   });
  EXPECT_EQ(p.golden, reference_plane(net, patterns, nullptr, nullptr));
  EXPECT_EQ(p.faulty, reference_plane(net, patterns, &spec, nullptr));
  return p;
}

TEST_F(SimdIdentityTest, SimulatorPlanesAreByteIdenticalAcrossTiers) {
  Network net = technology_map(quick_synthesis(make_benchmark("cmp8")));
  // Odd word counts force every kernel through its sub-lane tail: 1 and 3
  // never reach the AVX-512 8-word stride, 7 exercises 4-word + scalar
  // remainders, 9 exercises the full stride plus both tails. 4 is the
  // campaign geometry and 8 exactly one 512-bit step.
  for (int words : {1, 3, 4, 7, 8, 9}) {
    std::optional<Planes> reference;
    for (simd::Tier tier : supported_tiers()) {
      simd::set_tier(tier);
      Planes p = capture_planes(net, words, 0x1DE57);
      if (!reference) {
        reference = std::move(p);
        continue;
      }
      ASSERT_EQ(p.golden, reference->golden)
          << "golden plane diverged at tier " << simd::tier_name(tier)
          << ", words=" << words;
      ASSERT_EQ(p.faulty, reference->faulty)
          << "faulty plane diverged at tier " << simd::tier_name(tier)
          << ", words=" << words;
    }
  }
}

// Coverage counts of every CED scheme under every fault model: the
// threshold-0.1 approximate-logic CED, exact duplication and parity
// prediction, each campaign replayed at 1 and 4 threads on every supported
// tier. Duplication compares every output, so it must also flag every
// erroneous run.
TEST_F(SimdIdentityTest, CoverageCountsAreIdenticalAcrossTiers) {
  const Network net = make_benchmark("cmp8");
  const Network mapped = technology_map(quick_synthesis(net));
  PipelineOptions pipeline;
  pipeline.approx.significance_threshold = 0.1;
  pipeline.reliability.num_fault_samples = 300;
  pipeline.coverage.num_fault_samples = 300;
  const PipelineResult approx = run_ced_pipeline(net, pipeline);
  std::vector<int> all_pos(mapped.num_pos());
  std::iota(all_pos.begin(), all_pos.end(), 0);
  const CedDesign duplication = build_duplication_ced(mapped, mapped, all_pos);
  const CedDesign parity = build_parity_ced(mapped);
  const std::pair<const char*, const CedDesign*> schemes[] = {
      {"approx_ced", &approx.ced},
      {"duplication", &duplication},
      {"parity", &parity},
  };

  for (const auto& [scheme, ced] : schemes) {
    for (FaultModel model :
         {FaultModel::kSingleStuckAt, FaultModel::kMultiStuckAt,
          FaultModel::kTransientBurst}) {
      SCOPED_TRACE(std::string(scheme) + " / " + fault_model_name(model));
      CoverageOptions options;
      options.num_fault_samples = 400;
      options.words_per_fault = 3;  // odd count: kernels take their tail paths
      options.model = model;
      std::optional<CoverageResult> reference;
      for (simd::Tier tier : supported_tiers()) {
        simd::set_tier(tier);
        for (int threads : {1, 4}) {
          const ScopedThreadCount limit(threads);
          CoverageResult r = evaluate_ced_coverage(*ced, options);
          if (!reference) {
            reference = r;
            continue;
          }
          EXPECT_EQ(r.runs, reference->runs);
          EXPECT_EQ(r.erroneous, reference->erroneous)
              << "tier " << simd::tier_name(tier) << ", " << threads
              << " threads";
          EXPECT_EQ(r.detected, reference->detected)
              << "tier " << simd::tier_name(tier) << ", " << threads
              << " threads";
        }
      }
      EXPECT_GT(reference->erroneous, 0);
      if (ced == &duplication) {
        EXPECT_EQ(reference->detected, reference->erroneous);
      }
    }
  }
}

// Per-fault detection (some PO differs from golden) of every stuck-at
// fault of a mapped adder, over an odd word count.
TEST_F(SimdIdentityTest, FaultDetectionIsIdenticalAcrossTiers) {
  Network net = technology_map(quick_synthesis(make_benchmark("rca16")));
  std::vector<FaultSpec> faults;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind != NodeKind::kLogic) continue;
    faults.push_back(FaultSpec::stuck_at(id, false));
    faults.push_back(FaultSpec::stuck_at(id, true));
  }
  const PatternSet patterns = PatternSet::random(net.num_pis(), 3, 0xD7EC7);

  std::optional<std::vector<uint8_t>> reference;
  for (simd::Tier tier : supported_tiers()) {
    simd::set_tier(tier);
    FaultSimEngine engine(net);
    std::vector<uint8_t> detected(faults.size(), 0);
    engine.run_batch(patterns, faults,
                     [&](int i, const FaultSpec&, const FaultView& v) {
                       for (int o = 0; o < net.num_pos(); ++o) {
                         if (v.touched(net.po(o).driver)) detected[i] = 1;
                       }
                     });
    if (!reference) {
      EXPECT_GT(std::count(detected.begin(), detected.end(), 1), 0);
      reference = std::move(detected);
      continue;
    }
    EXPECT_EQ(detected, *reference) << "tier " << simd::tier_name(tier);
  }
}

// The synthesis screening prescreen runs on simulated planes; if a tier
// perturbed even one bit, stage-2 repair could take a different path and
// emit a structurally different approximate network. Serializing the
// result makes the comparison total.
TEST_F(SimdIdentityTest, SynthesisResultsAreIdenticalAcrossTiers) {
  Network net = make_benchmark("cmp8");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  ApproxOptions options;
  options.sim_words = 9;  // odd: prescreen planes cross every tail path

  std::optional<std::string> reference;
  std::optional<int> reference_repairs;
  for (simd::Tier tier : supported_tiers()) {
    simd::set_tier(tier);
    ApproxResult r = synthesize_approximation(net, dirs, options);
    ASSERT_TRUE(r.all_verified());
    std::string text = write_bench_string(r.approx);
    if (!reference) {
      reference = std::move(text);
      reference_repairs = r.repairs;
      continue;
    }
    EXPECT_EQ(text, *reference) << "tier " << simd::tier_name(tier);
    EXPECT_EQ(r.repairs, *reference_repairs);
  }
}

TEST_F(SimdIdentityTest, PopcountKernelsAreIdenticalAcrossTiers) {
  // Random rows at word counts crossing every vector stride and tail, with
  // both a full and a partial final-word mask. Each tier must return the
  // exact integer (or verdict) the scalar reference computes.
  uint64_t s = 0xC0FFEE123456789ULL;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int words : {1, 3, 4, 5, 7, 8, 9, 16, 33}) {
    std::vector<uint64_t> a(words), b(words), c(words);
    for (int w = 0; w < words; ++w) {
      a[w] = next();
      b[w] = next();
      c[w] = next();
    }
    for (uint64_t tail : {~0ULL, (1ULL << 17) - 1}) {
      auto ref = [&](auto f) {
        int64_t n = 0;
        for (int w = 0; w < words; ++w) {
          uint64_t mask = (w + 1 == words) ? tail : ~0ULL;
          n += std::popcount(f(a[w], b[w], c[w]) & mask);
        }
        return n;
      };
      const int64_t want_words = ref([](uint64_t x, uint64_t, uint64_t) {
        return x;
      });
      const int64_t want_and = ref([](uint64_t x, uint64_t y, uint64_t) {
        return x & y;
      });
      const int64_t want_xor_and = ref([](uint64_t x, uint64_t y, uint64_t z) {
        return (x ^ y) & z;
      });
      const int64_t want_andnot = ref([](uint64_t x, uint64_t y, uint64_t) {
        return ~x & y;
      });
      for (simd::Tier tier : supported_tiers()) {
        simd::set_tier(tier);
        EXPECT_EQ(popcount_words(a.data(), words, tail), want_words);
        EXPECT_EQ(popcount_and(a.data(), b.data(), words, tail), want_and);
        EXPECT_EQ(popcount_xor_and(a.data(), b.data(), c.data(), words, tail),
                  want_xor_and);
        EXPECT_EQ(popcount_andnot(a.data(), b.data(), words, tail),
                  want_andnot);

        std::vector<uint64_t> acc_xor(words, 0);
        accumulate_xor_or(acc_xor.data(), a.data(), b.data(), words);
        for (int w = 0; w < words; ++w) {
          EXPECT_EQ(acc_xor[w], a[w] ^ b[w]);
        }

        // rows_differ looks at every word but only the tail_mask bits of
        // the final one: flipping a padding bit of the final word must go
        // unseen, flipping its last valid bit (or a bit in any earlier
        // word) must not.
        const int last = words - 1;
        const uint64_t top_valid = uint64_t{1} << (63 - std::countl_zero(tail));
        std::vector<uint64_t> d = a;
        EXPECT_FALSE(rows_differ(a.data(), d.data(), words, tail))
            << "words=" << words << " tier " << simd::tier_name(tier);
        if (tail != ~0ULL) {
          d[last] ^= ~tail;
          EXPECT_FALSE(rows_differ(a.data(), d.data(), words, tail))
              << "padding, words=" << words << " tier "
              << simd::tier_name(tier);
        }
        d[last] ^= top_valid;
        EXPECT_TRUE(rows_differ(a.data(), d.data(), words, tail))
            << "last valid bit, words=" << words << " tier "
            << simd::tier_name(tier);
        for (int w = 0; w < last; ++w) {
          d = a;
          d[w] ^= uint64_t{1} << (w % 64);
          EXPECT_TRUE(rows_differ(a.data(), d.data(), words, tail))
              << "word " << w << ", words=" << words << " tier "
              << simd::tier_name(tier);
        }
      }
    }
  }
}

TEST_F(SimdIdentityTest, SetTierRejectsUnsupportedAndRecordsPolicy) {
  if (!simd::tier_supported(simd::Tier::kAvx512)) {
    EXPECT_THROW(simd::set_tier(simd::Tier::kAvx512), std::invalid_argument);
  }
  simd::set_tier(simd::Tier::kScalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  EXPECT_EQ(simd::width_bits(), 64);
  EXPECT_STREQ(simd::policy(), "forced:scalar");
}

}  // namespace
}  // namespace apx
