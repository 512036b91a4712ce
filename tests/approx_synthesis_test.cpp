#include "core/approx_synthesis.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "bdd/network_bdd.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/verify.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"

namespace apx {
namespace {

// The Sec. 2 example: F = a + b + c'd' + cd.
Network section2_network() {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId d = net.add_pi("d");
  NodeId ab = net.add_or(a, b, "ab");
  NodeId xnor_cd = net.add_node({c, d}, *Sop::parse(2, "00\n11"), "xnor");
  NodeId f = net.add_or(ab, xnor_cd, "F");
  net.add_po("F", f);
  return net;
}

TEST(ApproxSynthesisTest, Section2ExampleVerifiesAndCovers) {
  Network net = section2_network();
  ApproxOptions opt;
  opt.significance_threshold = 0.45;  // aggressive: drop the xnor path
  ApproxResult result =
      synthesize_approximation(net, {ApproxDirection::kOneApprox}, opt);
  ASSERT_EQ(result.po_stats.size(), 1u);
  EXPECT_TRUE(result.po_stats[0].verified);
  // G must imply F; a good solution reaches >= 12/14 coverage (a+b).
  EXPECT_TRUE(verify_po_approximation(net, result.approx, 0,
                                      ApproxDirection::kOneApprox));
  EXPECT_GE(result.po_stats[0].approximation_pct, 12.0 / 14.0 - 1e-9);
  // And it should be smaller than the original.
  EXPECT_LT(technology_map(result.approx).num_logic_nodes(),
            technology_map(optimize(net)).num_logic_nodes());
}

TEST(ApproxSynthesisTest, ZeroApproxDirection) {
  // F = (a|b) & (c|d): a 0-approximation G satisfies ~G => ~F (F => G).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId d = net.add_pi("d");
  NodeId l = net.add_or(a, b, "l");
  NodeId r = net.add_or(c, d, "r");
  NodeId f = net.add_and(l, r, "F");
  net.add_po("F", f);
  ApproxOptions opt;
  opt.significance_threshold = 0.3;
  ApproxResult result =
      synthesize_approximation(net, {ApproxDirection::kZeroApprox}, opt);
  EXPECT_TRUE(result.po_stats[0].verified);
  NetworkBdds orig_bdds(net);
  auto g = build_po_bdd(orig_bdds.manager(), result.approx, 0);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(orig_bdds.manager().implies(orig_bdds.po_ref(0), *g));
}

TEST(ApproxSynthesisTest, ZeroThresholdKeepsExactFunction) {
  Network net = section2_network();
  ApproxOptions opt;
  opt.significance_threshold = 0.0;
  ApproxResult result =
      synthesize_approximation(net, {ApproxDirection::kOneApprox}, opt);
  EXPECT_TRUE(result.po_stats[0].verified);
  EXPECT_NEAR(result.po_stats[0].approximation_pct, 1.0, 1e-9);
}

TEST(ApproxSynthesisTest, HigherThresholdNeverIncreasesApproxPct) {
  Network net = make_benchmark("cmp4");
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  double prev = 2.0;
  for (double th : {0.0, 0.1, 0.4}) {
    ApproxOptions opt;
    opt.significance_threshold = th;
    ApproxResult r = synthesize_approximation(net, dirs, opt);
    EXPECT_TRUE(r.all_verified()) << "threshold " << th;
    double mean = 0.0;
    for (const auto& s : r.po_stats) mean += s.approximation_pct;
    mean /= r.po_stats.size();
    EXPECT_LE(mean, prev + 0.05) << "threshold " << th;
    prev = mean;
  }
}

// The load-bearing property: every synthesized approximation verifies, for
// random networks, random directions and a sweep of thresholds.
class SynthesisProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

Network random_multilevel(std::mt19937& rng, int pis, int nodes, int pos) {
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) pool.push_back(net.add_pi("p" + std::to_string(i)));
  for (int g = 0; g < nodes; ++g) {
    int k = 2 + static_cast<int>(rng() % 3);
    std::vector<NodeId> fanins;
    while (static_cast<int>(fanins.size()) < k) {
      NodeId cand = pool[rng() % pool.size()];
      if (std::find(fanins.begin(), fanins.end(), cand) == fanins.end()) {
        fanins.push_back(cand);
      }
    }
    Sop sop(k);
    int cubes = 1 + static_cast<int>(rng() % 3);
    for (int ci = 0; ci < cubes; ++ci) {
      Cube c = Cube::full(k);
      for (int v = 0; v < k; ++v) {
        int roll = static_cast<int>(rng() % 3);
        if (roll == 0) c.set(v, LitCode::kNeg);
        if (roll == 1) c.set(v, LitCode::kPos);
      }
      sop.add_cube(c);
    }
    sop.make_scc_free();
    if (sop.empty()) continue;
    pool.push_back(net.add_node(fanins, sop));
  }
  for (int o = 0; o < pos; ++o) {
    net.add_po("o" + std::to_string(o), pool[pool.size() - 1 - o]);
  }
  net.cleanup();
  return net;
}

TEST_P(SynthesisProperty, AllApproximationsVerify) {
  auto [seed, threshold] = GetParam();
  std::mt19937 rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    Network net = random_multilevel(rng, 6, 20, 3);
    std::vector<ApproxDirection> dirs;
    for (int o = 0; o < net.num_pos(); ++o) {
      dirs.push_back((rng() & 1) ? ApproxDirection::kOneApprox
                                 : ApproxDirection::kZeroApprox);
    }
    ApproxOptions opt;
    opt.significance_threshold = threshold;
    ApproxResult result = synthesize_approximation(net, dirs, opt);
    EXPECT_TRUE(result.all_verified()) << "seed " << seed << " trial " << trial;
    // Independent re-verification through the BDD oracle.
    for (int o = 0; o < net.num_pos(); ++o) {
      EXPECT_TRUE(verify_po_approximation(net, result.approx, o, dirs[o]))
          << "po " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByThreshold, SynthesisProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.05, 0.2, 0.5)));

TEST(ApproxSynthesisTest, ReducesEmbeddedBenchmarks) {
  for (const char* name : {"c17", "rca4", "cmp4", "dec38", "maj5"}) {
    Network net = make_benchmark(name);
    std::vector<ApproxDirection> dirs(net.num_pos(),
                                      ApproxDirection::kZeroApprox);
    ApproxOptions opt;
    opt.significance_threshold = 0.15;
    ApproxResult r = synthesize_approximation(net, dirs, opt);
    EXPECT_TRUE(r.all_verified()) << name;
  }
}

TEST(ApproxSynthesisTest, DirectionCountMismatchThrows) {
  Network net = section2_network();
  EXPECT_THROW(synthesize_approximation(net, {}), std::logic_error);
}

// The percentage sweep runs on the repair oracle; every PO's reported
// approximation_pct must equal what a fresh oracle over the returned
// network gives (exact by minterm count, or sampled with the fixed seed).
std::vector<ApproxDirection> alternating_directions(const Network& net) {
  std::vector<ApproxDirection> dirs(net.num_pos());
  for (int i = 0; i < net.num_pos(); ++i) {
    dirs[i] = i % 2 ? ApproxDirection::kOneApprox
                    : ApproxDirection::kZeroApprox;
  }
  return dirs;
}

void expect_pct_matches_fresh(const Network& net,
                              const std::vector<ApproxDirection>& dirs,
                              const ApproxOptions& opt,
                              const std::string& label) {
  ApproxResult r = synthesize_approximation(net, dirs, opt);
  ASSERT_TRUE(r.all_verified()) << label;
  for (int po = 0; po < net.num_pos(); ++po) {
    EXPECT_EQ(r.po_stats[po].approximation_pct,
              approximation_percentage(net, r.approx, po, dirs[po],
                                       opt.bdd_budget))
        << label << " po " << po;
  }
}

TEST(ApproxSynthesisTest, PctSweepMatchesFreshOracleOnBenchSuite) {
  for (const char* name : {"cmb", "cordic", "term1", "x1", "i2"}) {
    const Network net = quick_synthesis(make_benchmark(name));
    ApproxOptions opt;
    opt.significance_threshold = 0.12;
    expect_pct_matches_fresh(net, alternating_directions(net), opt, name);
  }
}

// alu1 at a 82-node budget: the oracle's build fits, a verify() query
// overflows and drops the BDDs, and the sweep must rebuild them (as a fresh
// oracle does) instead of falling back to sampling.
TEST(ApproxSynthesisTest, PctSweepMatchesFreshOracleAfterQueryOverflow) {
  const Network net = quick_synthesis(make_benchmark("alu1"));
  ApproxOptions opt;
  opt.significance_threshold = 0.12;
  opt.bdd_budget = 82;
  expect_pct_matches_fresh(net, alternating_directions(net), opt, "alu1");
}

// mult32 at the AIG-scale budgets: every BDD build overflows on the
// original network, so both the sweep and a fresh oracle sample. One fresh
// oracle serves all 64 POs (a fresh oracle per PO, as in
// approximation_percentage(), repeats the same overflowing build).
TEST(ApproxSynthesisTest, PctSweepMatchesFreshOracleOnBddHostileMult32) {
  const Network net = quick_synthesis(make_benchmark("mult32"));
  const std::vector<ApproxDirection> dirs = alternating_directions(net);
  ApproxOptions opt;
  opt.significance_threshold = 0.12;
  opt.bdd_budget = 1u << 15;
  opt.sat_conflict_budget = 1000;
  ApproxResult r = synthesize_approximation(net, dirs, opt);
  ASSERT_TRUE(r.all_verified());
  ApproxOracle fresh(net, r.approx, opt.bdd_budget);
  EXPECT_FALSE(fresh.using_bdds());
  for (int po = 0; po < net.num_pos(); ++po) {
    EXPECT_EQ(r.po_stats[po].approximation_pct,
              fresh.approximation_pct(po, dirs[po]))
        << "po " << po;
  }
}

// Budgets at which the repair stage's per-node BDD checks overflow the
// shared manager: the overflow must end in a restored cone, never escape.
TEST(ApproxSynthesisTest, SourceAnalysisOverflowRestoresInsteadOfThrowing) {
  for (const char* name : {"cmp16", "cordic"}) {
    const Network net = quick_synthesis(make_benchmark(name));
    const std::vector<ApproxDirection> dirs = alternating_directions(net);
    ApproxOptions opt;
    opt.significance_threshold = 0.12;
    opt.bdd_budget = 745;
    ApproxResult r;
    EXPECT_NO_THROW(r = synthesize_approximation(net, dirs, opt)) << name;
    EXPECT_TRUE(r.all_verified()) << name;
  }
}

}  // namespace
}  // namespace apx
