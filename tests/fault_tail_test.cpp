// Word-tail handling when the vector count is not a multiple of 64
// (CampaignOptions::vectors_per_fault / run_batch's num_vectors): the final
// partial word's padding bits must never excite a fault, keep a dying event
// alive, or count toward detection — in the engine *and* in every consumer
// doing popcount accounting through FaultView::word_mask.
#include "sim/fault_engine.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "benchmarks/benchmarks.hpp"
#include "core/ced.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"

namespace apx {
namespace {

// a AND b -> po. With 100 of 128 vectors valid, patterns are words 0..1
// and bits 36..63 of word 1 are padding.
struct AndFixture {
  Network net;
  NodeId a, b, g;

  AndFixture() {
    a = net.add_pi("a");
    b = net.add_pi("b");
    g = net.add_and(a, b, "g");
    net.add_po("y", g);
    net.check();
  }
};

constexpr int kVectors = 100;
constexpr uint64_t kTail = (1ULL << (kVectors % 64)) - 1;

TEST(FaultTailTest, PaddingBitsCannotExciteAFault) {
  AndFixture fx;
  // All valid patterns drive a = b = 1, so the AND's golden value is 1 on
  // every valid vector and a stuck-at-1 there is unexcitable. The padding
  // bits drive a = 0, where golden is 0 and the stuck-at-1 *would* differ —
  // only the tail mask keeps this fault silent.
  PatternSet patterns(2, 2);
  patterns.set_word(0, 0, ~0ULL);
  patterns.set_word(0, 1, kTail);
  patterns.set_word(1, 0, ~0ULL);
  patterns.set_word(1, 1, ~0ULL);

  FaultSimEngine engine(fx.net);
  int visits = 0;
  engine.run_batch(
      patterns, {FaultSpec::stuck_at(fx.g, true)},
      [&](int, const FaultSpec&, const FaultView& v) {
        ++visits;
        EXPECT_EQ(v.num_vectors(), kVectors);
        EXPECT_EQ(v.num_words(), 2);
        EXPECT_EQ(v.word_mask(0), ~0ULL);
        EXPECT_EQ(v.word_mask(1), kTail);
        EXPECT_FALSE(v.touched(fx.g))
            << "padding-only difference must not excite the fault";
        // faulty() falls back to the golden row for untouched nodes, so
        // downstream popcounts see zero difference.
        EXPECT_EQ(v.faulty(fx.g), v.golden(fx.g));
      },
      /*num_vectors=*/kVectors);
  EXPECT_EQ(visits, 1);

  // Same batch with every vector valid: the word-1 difference is now real
  // and must propagate.
  visits = 0;
  engine.run_batch(patterns, {FaultSpec::stuck_at(fx.g, true)},
                   [&](int, const FaultSpec&, const FaultView& v) {
                     ++visits;
                     EXPECT_EQ(v.num_vectors(), 128);
                     EXPECT_EQ(v.word_mask(1), ~0ULL);
                     EXPECT_TRUE(v.touched(fx.g));
                   },
                   /*num_vectors=*/0);
  EXPECT_EQ(visits, 1);
}

TEST(FaultTailTest, PaddingBitsCannotKeepAPropagatingEventAlive) {
  AndFixture fx;
  // Excite the fault at the PI (stuck-at-0 on a, which is 1 on some valid
  // patterns), but make b = 0 exactly on the valid patterns of word 1 so
  // the difference reaching the AND gate survives only in padding bits
  // there; word 0 carries the real detection.
  PatternSet patterns(2, 2);
  patterns.set_word(0, 0, ~0ULL);
  patterns.set_word(0, 1, ~0ULL);
  patterns.set_word(1, 0, ~0ULL);
  patterns.set_word(1, 1, ~kTail);  // b = 1 only on padding vectors

  FaultSimEngine engine(fx.net);
  engine.run_batch(
      patterns, {FaultSpec::stuck_at(fx.a, false)},
      [&](int, const FaultSpec&, const FaultView& v) {
        ASSERT_TRUE(v.touched(fx.a));
        ASSERT_TRUE(v.touched(fx.g));  // word 0 detects for real
        // Detection accounting masked per word: word 1's padding-only
        // difference contributes nothing.
        int64_t detected = 0;
        for (int w = 0; w < v.num_words(); ++w) {
          uint64_t err = v.golden(fx.g)[w] ^ v.faulty(fx.g)[w];
          detected += std::popcount(err & v.word_mask(w));
        }
        EXPECT_EQ(detected, 64);  // word 0 only
      },
      /*num_vectors=*/kVectors);

  // With only word 1's patterns in play the surviving difference is pure
  // padding: the propagated event must die at the gate.
  PatternSet word1(2, 1);
  word1.set_word(0, 0, ~0ULL);
  word1.set_word(1, 0, ~kTail);
  engine.run_batch(word1, {FaultSpec::stuck_at(fx.a, false)},
                   [&](int, const FaultSpec&, const FaultView& v) {
                     EXPECT_TRUE(v.touched(fx.a));
                     EXPECT_FALSE(v.touched(fx.g))
                         << "event alive on padding bits only";
                   },
                   /*num_vectors=*/kVectors % 64);
}

TEST(FaultTailTest, MultiSitePaddingBitsCannotExciteASpec) {
  AndFixture fx;
  // Both sites agree with golden on every valid vector and differ only on
  // padding bits: a = b = 1 on the valid patterns, 0 on padding, with both
  // sites stuck-at-1. The whole spec must stay unexcited.
  PatternSet patterns(2, 2);
  patterns.set_word(0, 0, ~0ULL);
  patterns.set_word(0, 1, kTail);
  patterns.set_word(1, 0, ~0ULL);
  patterns.set_word(1, 1, kTail);

  FaultSpec spec;
  spec.add({fx.a, true, false, 0, 0});
  spec.add({fx.b, true, false, 0, 0});

  FaultSimEngine engine(fx.net);
  int visits = 0;
  engine.run_batch(
      patterns, {spec},
      [&](int, const FaultSpec&, const FaultView& v) {
        ++visits;
        EXPECT_FALSE(v.touched(fx.a));
        EXPECT_FALSE(v.touched(fx.b));
        EXPECT_FALSE(v.touched(fx.g));
        EXPECT_EQ(v.faulty(fx.g), v.golden(fx.g));
      },
      /*num_vectors=*/kVectors);
  EXPECT_EQ(visits, 1);
}

TEST(FaultTailTest, MultiSiteDetectionCountsAreTailMasked) {
  AndFixture fx;
  // Word 0 carries a real 64-vector detection (a forced 0 under a = b = 1);
  // in word 1 the propagated difference at the AND gate lands on padding
  // bits only (a = 1 exactly on padding there). The b site's forced value
  // matches golden everywhere in word 1.
  PatternSet patterns(2, 2);
  patterns.set_word(0, 0, ~0ULL);
  patterns.set_word(0, 1, ~kTail);  // a = 1 only on padding vectors
  patterns.set_word(1, 0, ~0ULL);
  patterns.set_word(1, 1, ~0ULL);

  FaultSpec spec;
  spec.add({fx.a, false, false, 0, 0});
  spec.add({fx.b, true, false, 0, 0});

  FaultSimEngine engine(fx.net);
  engine.run_batch(
      patterns, {spec},
      [&](int, const FaultSpec&, const FaultView& v) {
        ASSERT_TRUE(v.touched(fx.a));
        ASSERT_TRUE(v.touched(fx.g));
        // Raw word 1 of the gate differs on the 28 padding bits; the
        // masked accounting every consumer uses must see word 0 only.
        int64_t detected = 0;
        for (int w = 0; w < v.num_words(); ++w) {
          uint64_t err = v.golden(fx.g)[w] ^ v.faulty(fx.g)[w];
          detected += std::popcount(err & v.word_mask(w));
        }
        EXPECT_EQ(detected, 64);
      },
      /*num_vectors=*/kVectors);
}

TEST(FaultTailTest, TransientBurstOverhangingTheTailIsMasked) {
  AndFixture fx;
  // A burst window [96, 128) overhangs the 100-vector batch: its word-1
  // bits 32..63 are forced, but only vectors 96..99 are valid. Golden g is
  // 0 throughout word 1 (a = 0 there), so the stuck-at-1 burst differs on
  // all 32 window bits — exactly 4 of which may ever count.
  PatternSet patterns(2, 2);
  patterns.set_word(0, 0, ~0ULL);
  patterns.set_word(0, 1, 0);
  patterns.set_word(1, 0, ~0ULL);
  patterns.set_word(1, 1, ~0ULL);

  FaultSpec spec;
  spec.add({fx.g, true, true, /*burst_start=*/96, /*burst_length=*/32});

  FaultSimEngine engine(fx.net);
  engine.run_batch(
      patterns, {spec},
      [&](int, const FaultSpec&, const FaultView& v) {
        ASSERT_TRUE(v.touched(fx.g));
        // Outside the burst window the site holds golden exactly.
        EXPECT_EQ(v.faulty(fx.g)[0], v.golden(fx.g)[0]);
        int64_t detected = 0;
        for (int w = 0; w < v.num_words(); ++w) {
          uint64_t err = v.golden(fx.g)[w] ^ v.faulty(fx.g)[w];
          detected += std::popcount(err & v.word_mask(w));
        }
        EXPECT_EQ(detected, 4) << "only valid vectors of the burst count";
      },
      /*num_vectors=*/kVectors);
}

TEST(FaultTailTest, RunBatchRejectsOversizedVectorCounts) {
  AndFixture fx;
  PatternSet patterns(2, 1);
  FaultSimEngine engine(fx.net);
  EXPECT_THROW(engine.run_batch(patterns, {FaultSpec::stuck_at(fx.g, true)},
                                [](int, const FaultSpec&, const FaultView&) {},
                                /*num_vectors=*/65),
               std::logic_error);
}

TEST(FaultTailTest, CoverageAccountsExactlyTheValidVectors) {
  Network mapped = technology_map(quick_synthesis(make_benchmark("cmp8")));
  std::vector<ApproxDirection> dirs(mapped.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(mapped, mapped, dirs);

  CoverageOptions options;
  options.num_fault_samples = 40;
  options.vectors_per_fault = kVectors;
  CoverageResult partial = evaluate_ced_coverage(ced, options);
  EXPECT_EQ(partial.runs, int64_t{40} * kVectors);
  EXPECT_GT(partial.erroneous, 0);
  // Counting happens under word_mask, so no count can exceed the valid
  // vector budget.
  EXPECT_LE(partial.erroneous, partial.runs);
  EXPECT_LE(partial.detected, partial.erroneous);

  // The valid 100-vector prefix of a 128-vector campaign sees the same
  // patterns (layout-independent seeding), so widening the tail can only
  // add detections, never remove them.
  options.vectors_per_fault = 0;
  options.words_per_fault = 2;
  CoverageResult full = evaluate_ced_coverage(ced, options);
  EXPECT_EQ(full.runs, int64_t{40} * 128);
  EXPECT_GE(full.erroneous, partial.erroneous);
  EXPECT_GE(full.detected, partial.detected);
}

}  // namespace
}  // namespace apx
