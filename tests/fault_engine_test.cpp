#include "sim/fault_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "benchmarks/benchmarks.hpp"
#include "core/ced.hpp"
#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "reference_sim.hpp"
#include "reliability/reliability.hpp"

namespace apx {
namespace {

Network random_network(uint32_t seed, int pis = 6, int gates = 30) {
  std::mt19937 rng(seed);
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) {
    pool.push_back(net.add_pi("p" + std::to_string(i)));
  }
  for (int g = 0; g < gates; ++g) {
    NodeId a = pool[rng() % pool.size()];
    NodeId b = pool[rng() % pool.size()];
    switch (rng() % 3) {
      case 0: pool.push_back(net.add_and(a, b)); break;
      case 1: pool.push_back(net.add_or(a, b)); break;
      case 2: pool.push_back(net.add_xor(a, b)); break;
    }
  }
  net.add_po("f", pool.back());
  net.add_po("g", pool[pool.size() / 2]);
  return net;
}

// Both stuck-at polarities of every logic node.
std::vector<FaultSpec> all_stuck_at(const Network& net) {
  std::vector<FaultSpec> faults;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind != NodeKind::kLogic) continue;
    faults.push_back(FaultSpec::stuck_at(id, false));
    faults.push_back(FaultSpec::stuck_at(id, true));
  }
  return faults;
}

// Live stuck-ats of `net`: random_network leaves some gates with no
// fanout and no PO, and a campaign rejects those.
std::vector<FaultSpec> live_stuck_at(const Network& net,
                                     const FaultSimEngine& engine) {
  std::vector<FaultSpec> faults = all_stuck_at(net);
  std::erase_if(faults, [&](const FaultSpec& f) {
    return !engine.is_live_site(f.sites[0].node, f.sites[0].stuck_value);
  });
  return faults;
}

CedDesign duplication_ced(const std::string& bench) {
  Network mapped = technology_map(quick_synthesis(make_benchmark(bench)));
  std::vector<ApproxDirection> dirs(mapped.num_pos(),
                                    ApproxDirection::kZeroApprox);
  return build_ced_design(mapped, mapped, dirs);
}

TEST(FaultEngineTest, RunBatchMatchesSimulator) {
  Network net = random_network(11);
  std::vector<FaultSpec> faults = all_stuck_at(net);
  PatternSet patterns = PatternSet::random(net.num_pis(), 4, 77);
  const Plane golden = reference_plane(net, patterns, nullptr, nullptr);

  FaultSimEngine engine(net);
  std::atomic<int> visited{0};
  // Every fault's view against a brute-force full re-simulation with the
  // site forced: the engine's cone walk and early stop must not change a
  // single word of any node.
  auto check = [&](int i, const FaultSpec& fault, const FaultView& view) {
    EXPECT_EQ(fault.sites[0].node, faults[i].sites[0].node);
    const Plane faulty = reference_plane(net, patterns, &fault, nullptr);
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      for (int w = 0; w < view.num_words(); ++w) {
        ASSERT_EQ(view.golden(id)[w], golden[id][w]);
        ASSERT_EQ(view.faulty(id)[w], faulty[id][w])
            << "node " << id << " fault on " << fault.sites[0].node;
      }
    }
    ++visited;
  };
  engine.run_batch(patterns, faults, check);
  EXPECT_EQ(visited.load(), static_cast<int>(faults.size()));
}

// run_batch runs on the pool's worker limit (apx::thread_count(), the
// APX_THREADS policy unless overridden), and results stay bit-identical
// between the policy, a limit of 1 and a limit of 4.
TEST(FaultEngineTest, RunBatchDefaultThreadsFollowsPolicyAndStaysIdentical) {
  Network net = random_network(21);
  std::vector<FaultSpec> faults = all_stuck_at(net);
  PatternSet patterns = PatternSet::random(net.num_pis(), 4, 99);
  FaultSimEngine engine(net);

  auto fingerprint = [&](int threads) {
    const ScopedThreadCount limit(threads);
    std::vector<uint64_t> sums(faults.size(), 0);
    engine.run_batch(
        patterns, faults,
        [&](int i, const FaultSpec&, const FaultView& view) {
          uint64_t h = 0;
          for (NodeId id = 0; id < net.num_nodes(); ++id) {
            for (int w = 0; w < view.num_words(); ++w) {
              h = h * 1099511628211ULL ^ (view.faulty(id)[w] & view.word_mask(w));
            }
          }
          sums[i] = h;
        });
    return sums;
  };

  // A limit of 0 leaves the APX_THREADS policy in charge.
  const std::vector<uint64_t> policy = fingerprint(0);
  const std::vector<uint64_t> serial = fingerprint(1);
  const std::vector<uint64_t> four = fingerprint(4);
  EXPECT_EQ(policy, serial);
  EXPECT_EQ(policy, four);
}

TEST(FaultEngineTest, UnexcitedFaultLeavesViewGolden) {
  // y = a | !a is constant 1; stuck-at-1 on it never differs from golden,
  // so nothing may propagate (early fault dropping inside the engine).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId y = net.add_or(a, net.add_not(a), "y");
  NodeId z = net.add_and(y, a, "z");
  net.add_po("z", z);
  FaultSimEngine engine(net);
  PatternSet patterns = PatternSet::random(1, 2, 3);
  engine.run_batch(patterns, {FaultSpec::stuck_at(y, true)},
                   [&](int, const FaultSpec&, const FaultView& view) {
                     EXPECT_FALSE(view.touched(y));
                     EXPECT_FALSE(view.touched(z));
                     for (int w = 0; w < view.num_words(); ++w) {
                       EXPECT_EQ(view.faulty(z)[w], view.golden(z)[w]);
                     }
                   });
}

TEST(FaultEngineTest, CampaignVisitsEverySampleExactlyOnce) {
  Network net = random_network(5);
  FaultSimEngine engine(net);
  const std::vector<FaultSpec> faults = live_stuck_at(net, engine);
  CampaignOptions opt;
  opt.num_fault_samples = 100;
  opt.faults_per_batch = 16;
  const ScopedThreadCount limit(4);
  ASSERT_FALSE(faults.empty());
  std::vector<int> visits(opt.num_fault_samples, 0);
  engine.run_campaign(
      opt,
      [&](uint64_t s) { return faults[SplitMix64(s).next() % faults.size()]; },
      [&](int i, const FaultSpec&, const FaultView&) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(FaultEngineTest, SeedDerivationIsPureAndIndexStable) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  EXPECT_NE(derive_seed(42, 7), derive_seed(42, 8));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
}

// Satellite requirement (c): 4-thread coverage counts bit-identical to the
// single-threaded path for a fixed seed.
TEST(FaultEngineTest, CoverageCountsBitIdenticalAcrossThreadCounts) {
  CedDesign ced = duplication_ced("cmp4");
  CoverageOptions base;
  base.num_fault_samples = 400;
  base.faults_per_batch = 32;

  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return evaluate_ced_coverage(ced, base);
  };
  CoverageResult r1 = run(1);
  CoverageResult r4 = run(4);

  EXPECT_GT(r1.erroneous, 0);
  EXPECT_EQ(r1.runs, r4.runs);
  EXPECT_EQ(r1.erroneous, r4.erroneous);
  EXPECT_EQ(r1.detected, r4.detected);
}

// The engine's work against the per-fault golden rerun it replaced,
// counted in node evaluations: a rerun simulates every logic node once per
// fault plus that fault's cone; the engine simulates every logic node once
// per batch plus the same cones. A cone walk that evaluates every node, or
// batches of one fault, falls below the 4x bar.
TEST(FaultEngineTest, ConeWalkDoesFourTimesLessWorkThanPerFaultRerun) {
  CedDesign ced = duplication_ced("dalu");
  CoverageOptions options;
  options.num_fault_samples = 1500;
  options.words_per_fault = 4;
  options.faults_per_batch = 64;

  trace::reset();
  trace::set_trace_enabled(true);
  evaluate_ced_coverage(ced, options);
  trace::set_trace_enabled(false);
  const int64_t sims = trace::counter("faultsim.fault_sims").value();
  const int64_t batches = trace::counter("faultsim.batches").value();
  const int64_t evals = trace::counter("faultsim.node_evals").value();
  trace::reset();

  EXPECT_EQ(sims, 1500);
  EXPECT_EQ(batches, 24);
  EXPECT_GT(evals, 0);
  const int64_t nodes = ced.design.num_logic_nodes();
  const int64_t rerun = sims * nodes + evals;
  const int64_t engine = batches * nodes + evals;
  EXPECT_GE(rerun, 4 * engine)
      << nodes << " logic nodes, " << evals << " cone evaluations: "
      << static_cast<double>(rerun) / engine << "x";
}

TEST(FaultEngineTest, ReliabilityBitIdenticalAcrossThreadCounts) {
  Network mapped = technology_map(quick_synthesis(make_benchmark("dec38")));
  ReliabilityOptions opt;
  opt.num_fault_samples = 300;
  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return analyze_reliability(mapped, opt);
  };
  ReliabilityReport r1 = run(1);
  ReliabilityReport r4 = run(4);
  ASSERT_EQ(r1.outputs.size(), r4.outputs.size());
  // Exact equality: the rates are ratios of exact integer counts, so the
  // contract is bit-identity, not closeness.
  for (size_t o = 0; o < r1.outputs.size(); ++o) {
    EXPECT_EQ(r1.outputs[o].rate_0_to_1, r4.outputs[o].rate_0_to_1);
    EXPECT_EQ(r1.outputs[o].rate_1_to_0, r4.outputs[o].rate_1_to_0);
  }
  EXPECT_EQ(r1.any_output_error_rate, r4.any_output_error_rate);
  EXPECT_EQ(r1.max_ced_coverage, r4.max_ced_coverage);
}

// A campaign is one pool job over its pattern batches, not one fork/join
// per batch: 25000 samples in 391 batches of 64 at 2 threads.
TEST(FaultEngineTest, CampaignForksThePoolOnce) {
  Network net = random_network(7);
  FaultSimEngine engine(net);
  const std::vector<FaultSpec> faults = live_stuck_at(net, engine);
  ASSERT_FALSE(faults.empty());
  CampaignOptions opt;
  opt.num_fault_samples = 25000;
  opt.words_per_fault = 1;
  opt.faults_per_batch = 64;
  const ScopedThreadCount limit(2);

  trace::reset();
  trace::set_trace_enabled(true);
  engine.run_campaign(
      opt,
      [&](uint64_t s) { return faults[SplitMix64(s).next() % faults.size()]; },
      [](int, const FaultSpec&, const FaultView&) {});
  trace::set_trace_enabled(false);
  const int64_t jobs = trace::counter("pool.jobs").value();
  const int64_t sims = trace::counter("faultsim.fault_sims").value();
  const int64_t batches = trace::counter("faultsim.batches").value();
  const int64_t words = trace::counter("faultsim.pattern_words").value();
  trace::reset();

  EXPECT_EQ(jobs, 1);
  EXPECT_EQ(sims, 25000);
  EXPECT_EQ(batches, 391);
  EXPECT_EQ(words, 391);
}

// Batch shapes the per-batch tasks must get right: a partial final batch
// (150 = 64 + 64 + 22 samples) and fewer batches than workers (3 batches
// at 4 threads). Every sample is visited once with the same view, and
// coverage and reliability counts match the 1-thread run exactly.
TEST(FaultEngineTest, PartialAndScarceBatchesMatchOneThread) {
  constexpr int kSamples = 150;
  constexpr int kPerBatch = 64;
  Network net = random_network(13);
  FaultSimEngine engine(net);
  const std::vector<FaultSpec> faults = live_stuck_at(net, engine);
  ASSERT_FALSE(faults.empty());

  // Per-sample fingerprint of every node's faulty row, and visit counts.
  auto campaign = [&](int threads) {
    CampaignOptions opt;
    opt.num_fault_samples = kSamples;
    opt.faults_per_batch = kPerBatch;
    opt.vectors_per_fault = 100;  // partial final word as well
    const ScopedThreadCount limit(threads);
    std::vector<uint64_t> prints(kSamples, 0);
    std::vector<int> visits(kSamples, 0);
    engine.run_campaign(
        opt,
        [&](uint64_t s) {
          return faults[SplitMix64(s).next() % faults.size()];
        },
        [&](int i, const FaultSpec&, const FaultView& view) {
          uint64_t h = 0;
          for (NodeId id = 0; id < net.num_nodes(); ++id) {
            for (int w = 0; w < view.num_words(); ++w) {
              h = h * 1099511628211ULL ^
                  (view.faulty(id)[w] & view.word_mask(w));
            }
          }
          prints[i] = h;
          ++visits[i];
        });
    EXPECT_EQ(visits, std::vector<int>(kSamples, 1)) << threads << " threads";
    return prints;
  };

  CedDesign ced = duplication_ced("cmp4");
  auto coverage = [&](int threads) {
    CoverageOptions opt;
    opt.num_fault_samples = kSamples;
    opt.faults_per_batch = kPerBatch;
    const ScopedThreadCount limit(threads);
    return evaluate_ced_coverage(ced, opt);
  };
  Network mapped = technology_map(quick_synthesis(make_benchmark("dec38")));
  auto reliability = [&](int threads) {
    ReliabilityOptions opt;
    opt.num_fault_samples = kSamples;
    opt.faults_per_batch = kPerBatch;
    const ScopedThreadCount limit(threads);
    return analyze_reliability(mapped, opt);
  };

  const std::vector<uint64_t> prints1 = campaign(1);
  const CoverageResult c1 = coverage(1);
  const ReliabilityReport r1 = reliability(1);
  EXPECT_GT(c1.erroneous, 0);
  EXPECT_GT(r1.any_output_error_rate, 0.0);
  for (int threads : {3, 4}) {
    EXPECT_EQ(campaign(threads), prints1) << threads << " threads";
    const CoverageResult c = coverage(threads);
    EXPECT_EQ(c.runs, c1.runs) << threads << " threads";
    EXPECT_EQ(c.erroneous, c1.erroneous) << threads << " threads";
    EXPECT_EQ(c.detected, c1.detected) << threads << " threads";
    const ReliabilityReport r = reliability(threads);
    ASSERT_EQ(r.outputs.size(), r1.outputs.size());
    for (size_t o = 0; o < r1.outputs.size(); ++o) {
      EXPECT_EQ(r.outputs[o].rate_0_to_1, r1.outputs[o].rate_0_to_1);
      EXPECT_EQ(r.outputs[o].rate_1_to_0, r1.outputs[o].rate_1_to_0);
    }
    EXPECT_EQ(r.any_output_error_rate, r1.any_output_error_rate);
    EXPECT_EQ(r.max_ced_coverage, r1.max_ced_coverage);
  }
}

TEST(FaultEngineTest, CampaignRejectsOutOfRangeFaultSites) {
  Network net = random_network(3);
  FaultSimEngine engine(net);
  CampaignOptions opt;
  opt.num_fault_samples = 4;
  PatternSet patterns = PatternSet::random(net.num_pis(), 1, 5);
  auto ignore = [](int, const FaultSpec&, const FaultView&) {};
  // Past the end, kNullNode, and every other negative id (an id below
  // kNullNode would index before the value arena).
  for (NodeId bad : {net.num_nodes(), kNullNode, NodeId{-2}}) {
    const FaultSpec spec = FaultSpec::stuck_at(bad, false);
    EXPECT_THROW(
        engine.run_campaign(opt, [&](uint64_t) { return spec; }, ignore),
        std::logic_error)
        << "node " << bad;
    EXPECT_THROW(engine.run_batch(patterns, {spec}, ignore), std::logic_error)
        << "node " << bad;
    EXPECT_FALSE(engine.is_live_site(bad, false)) << "node " << bad;
  }
}

}  // namespace
}  // namespace apx
