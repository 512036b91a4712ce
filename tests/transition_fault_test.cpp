// Transition (gate-delay) faults and delay CED. Delay CED evaluates a
// slow-to-rise (slow-to-fall) fault as a stuck-at-0 (stuck-at-1) on the
// capture patterns, counted only on the vectors where the site makes the
// slow transition. The tiny-circuit tests below check that identity
// against the two-pattern definition (the site captures x2 AND x1, or
// x2 OR x1, and the stale value propagates), simulated by brute force.
#include <gtest/gtest.h>

#include <bit>

#include "benchmarks/benchmarks.hpp"
#include "core/delay_ced.hpp"
#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "reference_sim.hpp"
#include "sim/fault_engine.hpp"
#include "sim/rng.hpp"

namespace apx {
namespace {

// Capture-time values of every node under a slow transition at `site`,
// computed the way delay CED computes them: the stuck-at run through
// FaultSimEngine, kept on the launched vectors, golden elsewhere. Checked
// word for word against the brute-force two-pattern definition.
Plane delay_capture(const Network& net, const PatternSet& launch,
                    const PatternSet& capture, NodeId site,
                    bool slow_to_rise) {
  const Plane before = simulate_plane(net, launch);
  Plane out;
  FaultSimEngine engine(net);
  engine.run_batch(
      capture, {FaultSpec::stuck_at(site, !slow_to_rise)},
      [&](int, const FaultSpec&, const FaultView& v) {
        const int W = v.num_words();
        out.assign(net.num_nodes(), std::vector<uint64_t>(W));
        for (NodeId id = 0; id < net.num_nodes(); ++id) {
          for (int w = 0; w < W; ++w) {
            const uint64_t x1 = before[site][w];
            const uint64_t x2 = v.golden(site)[w];
            const uint64_t launched = slow_to_rise ? ~x1 & x2 : x1 & ~x2;
            out[id][w] = (v.golden(id)[w] & ~launched) |
                         (v.faulty(id)[w] & launched);
          }
        }
      });
  const Plane reference =
      simulate_plane(net, capture, [&](NodeId id, uint64_t* row) {
        if (id != site) return;
        for (size_t w = 0; w < before[id].size(); ++w) {
          row[w] = slow_to_rise ? row[w] & before[id][w]
                                : row[w] | before[id][w];
        }
      });
  EXPECT_EQ(out, reference) << "site " << site;
  return out;
}

TEST(DelayCedTest, SlowToRiseHoldsZero) {
  // Single buffer: y = a. Launch a=0, capture a=1: slow-to-rise keeps 0.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId y = net.add_buf(a, "y");
  net.add_po("y", y);

  PatternSet launch(1, 1), capture(1, 1);
  launch.set_word(0, 0, 0b0011);   // patterns 0,1 launch at 1; 2,3 at 0
  capture.set_word(0, 0, 0b0101);  // capture values
  // Pattern 2: 0 -> 1 rising: faulty stays 0. Pattern 0: 1 -> 1 stays 1.
  Plane rise = delay_capture(net, launch, capture, y, /*slow_to_rise=*/true);
  EXPECT_EQ(rise[y][0] & 0xF, 0b0001u);

  // Falling pattern 1 (1 -> 0): faulty stays 1.
  Plane fall = delay_capture(net, launch, capture, y, /*slow_to_rise=*/false);
  EXPECT_EQ(fall[y][0] & 0xF, 0b0111u);
}

TEST(DelayCedTest, SlowTransitionPropagatesThroughCone) {
  // y = a & b: a slow-to-rise at the AND output shows at y only when the
  // output actually rises.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId y = net.add_and(a, b, "g");
  NodeId z = net.add_not(y, "z");
  net.add_po("z", z);

  PatternSet launch(2, 1), capture(2, 1);
  // One pattern: a,b launch 0,1 -> capture 1,1 (output rises 0 -> 1).
  launch.set_word(0, 0, 0b0);
  launch.set_word(1, 0, 0b1);
  capture.set_word(0, 0, 0b1);
  capture.set_word(1, 0, 0b1);
  EXPECT_EQ(simulate_plane(net, capture)[z][0] & 1, 0u);  // z = ~(1&1) = 0
  Plane faulty = delay_capture(net, launch, capture, y, true);
  EXPECT_EQ(faulty[z][0] & 1, 1u);  // stale 0 at y -> z = 1
}

TEST(DelayCedTest, NoTransitionNoEffect) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId y = net.add_buf(a, "y");
  net.add_po("y", y);
  PatternSet same(1, 1);
  same.set_word(0, 0, 0xF0F0F0F0F0F0F0F0ULL);
  const Plane golden = simulate_plane(net, same);
  EXPECT_EQ(delay_capture(net, same, same, y, true), golden);
  EXPECT_EQ(delay_capture(net, same, same, y, false), golden);
}

TEST(DelayCedTest, PiStemTransitionIsDetected) {
  // y = a & b observed directly at a PO: a slow-to-rise on PI stem `a`
  // (launch a=0, capture a=1, b=1) holds the stale 0 and flips y. PI stems
  // are delay-CED fault sites (DelayCoverageOptions::include_pi_stems).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId y = net.add_and(a, b, "y");
  net.add_po("y", y);

  PatternSet launch(2, 1), capture(2, 1);
  launch.set_word(0, 0, 0b0);   // a: 0 -> 1 (rising)
  launch.set_word(1, 0, 0b1);   // b: steady 1
  capture.set_word(0, 0, 0b1);
  capture.set_word(1, 0, 0b1);
  EXPECT_EQ(simulate_plane(net, capture)[y][0] & 1, 1u);  // fault-free y = 1
  // The stale 0 on the stem propagates: the fault is detected at the PO.
  Plane faulty = delay_capture(net, launch, capture, a, /*slow_to_rise=*/true);
  EXPECT_EQ(faulty[y][0] & 1, 0u);
}

// Delay CED on a duplicated buffer: every erroneous capture is a launched
// transition of the input, and the 0-approximate checker flags exactly the
// slow-to-fall ones (a stale 1 where the buffer should read 0). The
// expected counts replay the campaign stream: sample i draws its site, then
// its polarity, from derive_seed(seed, i); batch b = i / faults_per_batch
// draws its patterns from derive_seed(seed ^ kPatternStream, b); and
// capture vector k launches from vector k - 1 of its batch, vector 0 from
// the batch's last vector.
TEST(DelayCedTest, ErroneousCapturesAreExactlyTheLaunchedTransitions) {
  Network net;
  NodeId a = net.add_pi("a");
  net.add_po("y", net.add_buf(a, "y"));
  CedDesign ced = build_ced_design(net, net, {ApproxDirection::kZeroApprox});
  DelayCoverageOptions opt;
  opt.num_fault_samples = 150;  // three batches, the last one partial
  opt.words_per_fault = 2;
  opt.include_pi_stems = false;
  ASSERT_EQ(ced.functional_nodes.size(), 1u);

  const int W = opt.words_per_fault;
  const int per_batch = CampaignOptions{}.faults_per_batch;
  int64_t erroneous = 0, detected = 0;
  for (int s = 0; s < opt.num_fault_samples; ++s) {
    SplitMix64 rng(derive_seed(opt.seed, static_cast<uint64_t>(s)));
    rng.next();  // the site: the buffer is the only one
    const bool slow_to_rise = (rng.next() & 1) == 0;  // stuck-at-0
    const PatternSet capture = PatternSet::random(
        1, W,
        derive_seed(opt.seed ^ FaultSimEngine::kPatternStream,
                    static_cast<uint64_t>(s / per_batch)));
    for (int w = 0; w < W; ++w) {
      const uint64_t x2 = capture.word(0, w);
      const uint64_t x1 = (x2 << 1) | (capture.word(0, (w + W - 1) % W) >> 63);
      const int rises = std::popcount(~x1 & x2);
      const int falls = std::popcount(x1 & ~x2);
      erroneous += slow_to_rise ? rises : falls;
      detected += slow_to_rise ? 0 : falls;
    }
  }
  const CoverageResult r = evaluate_delay_fault_coverage(ced, opt);
  EXPECT_EQ(r.runs, 150 * 2 * 64);
  EXPECT_EQ(r.erroneous, erroneous);
  EXPECT_EQ(r.detected, detected);
  EXPECT_GT(detected, 0);
  EXPECT_LT(detected, erroneous);
}

// A PI without fanout can never err, and a campaign refuses dead sites:
// delay CED samples only the PI stems that have fanout.
TEST(DelayCedTest, PiStemsWithoutFanoutAreNotSampled) {
  Network net;
  NodeId a = net.add_pi("a");
  net.add_pi("unused");
  net.add_po("y", net.add_not(a, "y"));
  CedDesign ced = build_ced_design(net, net, {ApproxDirection::kZeroApprox});
  DelayCoverageOptions opt;
  opt.num_fault_samples = 200;
  const CoverageResult r = evaluate_delay_fault_coverage(ced, opt);
  EXPECT_EQ(r.runs, 200 * 4 * 64);
  EXPECT_GT(r.erroneous, 0);
}

TEST(DelayCedTest, RejectsNonPositiveWordCounts) {
  Network net = make_benchmark("c17");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(net, net, dirs);
  for (int words : {0, -1}) {
    DelayCoverageOptions opt;
    opt.words_per_fault = words;
    EXPECT_THROW(evaluate_delay_fault_coverage(ced, opt),
                 std::invalid_argument)
        << "words_per_fault " << words;
  }
}

TEST(DelayCedTest, DelayFaultsAreDetectedByTheSameCheckers) {
  // Perfect check generator on an AND cone: delay faults produce
  // unidirectional capture errors that the stuck-at checkers flag.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  net.add_po("y", net.add_and(net.add_and(a, b), c));
  Network mapped = technology_map(net);
  CedDesign ced =
      build_ced_design(mapped, mapped, {ApproxDirection::kZeroApprox});
  DelayCoverageOptions opt;
  opt.num_fault_samples = 300;
  // Gate-level faults only: this asserts the paper's claim about checker
  // reuse for *gate* delay faults. PI-stem faults are common mode in an
  // exact-duplicate CED (see the test below) and would dilute coverage.
  opt.include_pi_stems = false;
  CoverageResult cov = evaluate_delay_fault_coverage(ced, opt);
  EXPECT_GT(cov.erroneous, 0);
  // An AND cone is mostly-0: slow-to-fall faults dominate the erroneous
  // captures (0->1 direction at the output), which the 0-approx checker
  // catches.
  EXPECT_GT(cov.coverage(), 0.5);
}

TEST(DelayCedTest, PiStemFaultsAreCommonModeInExactDuplication) {
  // A slow PI stem feeds the functional circuit and the check-symbol
  // generator the same stale value: the capture is erroneous, but the
  // rails agree — structurally undetectable by duplication. The erroneous
  // count must rise when PI stems are sampled while detection stays capped
  // at the gate-fault level (this is why include_pi_stems exists and why
  // the headline gate-level claim excludes stems).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId y = net.add_and(a, b, "y");
  net.add_po("y", y);
  Network mapped = technology_map(net);
  CedDesign ced =
      build_ced_design(mapped, mapped, {ApproxDirection::kZeroApprox});

  PatternSet launch(2, 1), capture(2, 1);
  launch.set_word(0, 0, 0b0);  // a: 0 -> 1 rising
  launch.set_word(1, 0, 0b1);  // b: steady 1
  capture.set_word(0, 0, 0b1);
  capture.set_word(1, 0, 0b1);
  const Plane golden = simulate_plane(ced.design, capture);
  const Plane faulty = delay_capture(ced.design, launch, capture, a,
                                     /*slow_to_rise=*/true);
  const NodeId out = ced.functional_outputs[0];
  // The functional output is erroneous...
  EXPECT_NE(faulty[out][0] & 1, golden[out][0] & 1);
  // ...but the rails agree exactly where duplication would flag an error
  // only if the two copies diverged — they cannot, the stale input is
  // common to both. Rails agree <=> error flagged; here they must
  // *disagree* (no detection).
  const uint64_t z1 = faulty[ced.error_pair.rail1][0] & 1;
  const uint64_t z2 = faulty[ced.error_pair.rail2][0] & 1;
  EXPECT_NE(z1, z2);
}

// Same counts on every run and on any number of workers, with and without
// PI stems.
TEST(DelayCedTest, CoverageBoundedAndDeterministic) {
  Network net = make_benchmark("cmp4");
  Network opt = quick_synthesis(net);
  Network mapped = technology_map(opt);
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(mapped, mapped, dirs);
  for (bool stems : {true, false}) {
    DelayCoverageOptions dopt;
    dopt.num_fault_samples = 200;
    dopt.include_pi_stems = stems;
    auto run = [&](int threads) {
      const ScopedThreadCount limit(threads);
      return evaluate_delay_fault_coverage(ced, dopt);
    };
    const CoverageResult one = run(1);
    EXPECT_GT(one.erroneous, 0) << "stems " << stems;
    EXPECT_LE(one.detected, one.erroneous) << "stems " << stems;
    for (int threads : {1, 2, 4}) {
      const CoverageResult again = run(threads);
      EXPECT_EQ(again.runs, one.runs) << threads << " threads";
      EXPECT_EQ(again.erroneous, one.erroneous) << threads << " threads";
      EXPECT_EQ(again.detected, one.detected) << threads << " threads";
    }
  }
}

CedDesign cmp4_delay_ced() {
  Network mapped = technology_map(quick_synthesis(make_benchmark("cmp4")));
  std::vector<ApproxDirection> dirs(mapped.num_pos(),
                                    ApproxDirection::kZeroApprox);
  dirs[0] = ApproxDirection::kOneApprox;
  return build_ced_design(mapped, mapped, dirs);
}

// Exact counts recorded from the campaign form of delay CED (launch vector
// k - 1 of the capture batch).
TEST(DelayCedPinTest, ErroneousAndDetectedReproduceRecordedCounts) {
  const CedDesign ced = cmp4_delay_ced();
  DelayCoverageOptions dopt;
  dopt.num_fault_samples = 300;
  dopt.words_per_fault = 3;
  CoverageResult with_stems = evaluate_delay_fault_coverage(ced, dopt);
  EXPECT_EQ(with_stems.runs, 57600);
  EXPECT_EQ(with_stems.erroneous, 4343);
  EXPECT_EQ(with_stems.detected, 1401);

  dopt.include_pi_stems = false;
  CoverageResult gates_only = evaluate_delay_fault_coverage(ced, dopt);
  EXPECT_EQ(gates_only.runs, 57600);
  EXPECT_EQ(gates_only.erroneous, 4322);
  EXPECT_EQ(gates_only.detected, 1700);
}

// One golden simulation per pattern batch serves both the launch and the
// capture vectors: 300 samples in batches of 64 are five batches.
TEST(DelayCedTest, CampaignSimulatesGoldenOncePerBatch) {
  const CedDesign ced = cmp4_delay_ced();
  DelayCoverageOptions opt;
  opt.num_fault_samples = 300;
  trace::reset();
  trace::set_trace_enabled(true);
  evaluate_delay_fault_coverage(ced, opt);
  trace::set_trace_enabled(false);
  const int64_t batches = trace::counter("faultsim.batches").value();
  const int64_t sims = trace::counter("faultsim.fault_sims").value();
  trace::reset();
  EXPECT_EQ(batches, 5);
  EXPECT_EQ(sims, 300);
}

}  // namespace
}  // namespace apx
