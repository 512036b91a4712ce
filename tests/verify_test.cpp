// Tests for the incremental ApproxOracle: the structural fast path, the
// BDD-overflow -> SAT fallback chain, solver-instance survival across
// refreshes, and incremental-vs-fresh-oracle equivalence.
#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/trace.hpp"
#include "network/ordering.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

// Three POs sharing internal cones: enough structure that a single-node
// repair dirties some cones and leaves others untouched.
Network shared_cone_net() {
  Network net;
  std::vector<NodeId> pi;
  for (int i = 0; i < 8; ++i) {
    pi.push_back(net.add_pi("x" + std::to_string(i)));
  }
  NodeId n1 = net.add_and(pi[0], pi[1], "n1");
  NodeId n2 = net.add_or(pi[2], pi[3], "n2");
  NodeId n3 = net.add_xor(pi[4], pi[5], "n3");
  NodeId n4 = net.add_and(n1, n2, "n4");
  NodeId n5 = net.add_or(n3, pi[6], "n5");
  NodeId n6 = net.add_and(n4, n5, "n6");
  NodeId n7 = net.add_or(n4, pi[7], "n7");
  NodeId n8 = net.add_xor(n5, n7, "n8");
  net.add_po("f0", n6);
  net.add_po("f1", n7);
  net.add_po("f2", n8);
  return net;
}

// Evaluates one PO of a network on a single input assignment.
bool eval_po(const Network& net, int po, const std::vector<uint8_t>& input) {
  PatternSet p(net.num_pis(), 1);
  for (int i = 0; i < net.num_pis(); ++i) {
    p.set_word(i, 0, input[i] ? 1u : 0u);
  }
  Simulator sim(net);
  sim.run(p);
  return sim.value(net.po(po).driver)[0] & 1u;
}

TEST(VerifyOracleTest, StructuralShortCircuitTouchesNoSolver) {
  Network net = shared_cone_net();
  Network approx = net;  // identical clone
  ApproxOracle oracle(net, approx);
  for (int po = 0; po < net.num_pos(); ++po) {
    EXPECT_TRUE(oracle.verify(po, ApproxDirection::kOneApprox));
    EXPECT_TRUE(oracle.verify(po, ApproxDirection::kZeroApprox));
  }
  const ApproxOracle::Stats& s = oracle.oracle_stats();
  EXPECT_EQ(s.structural_hits, 2u * net.num_pos());
  EXPECT_EQ(s.bdd_queries, 0u);
  EXPECT_EQ(s.sat_queries, 0u);
  EXPECT_EQ(oracle.sat_identity(), nullptr);  // solver never constructed
}

TEST(VerifyOracleTest, BddOverflowFallsBackToSatWithCounterexample) {
  // F = a & b, G = a | b: G is NOT a 1-approximation of F.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  net.add_po("f", net.add_and(a, b, "f"));
  Network approx;
  NodeId a2 = approx.add_pi("a");
  NodeId b2 = approx.add_pi("b");
  approx.add_po("f", approx.add_or(a2, b2, "f"));

  // A 4-node budget cannot even hold the PI variables: the initial build
  // overflows and every query must go through the SAT fallback.
  ApproxOracle oracle(net, approx, /*bdd_budget=*/4);
  EXPECT_FALSE(oracle.using_bdds());

  EXPECT_FALSE(oracle.verify(0, ApproxDirection::kOneApprox));
  EXPECT_EQ(oracle.oracle_stats().bdd_queries, 0u);
  EXPECT_GE(oracle.oracle_stats().sat_queries, 1u);

  // The counterexample must witness G = 1, F = 0.
  const std::vector<uint8_t>& cex = oracle.last_counterexample();
  ASSERT_EQ(cex.size(), 2u);
  EXPECT_TRUE(eval_po(approx, 0, cex));
  EXPECT_FALSE(eval_po(net, 0, cex));

  // The other direction (F => G) holds and the SAT path proves it.
  EXPECT_TRUE(oracle.verify(0, ApproxDirection::kZeroApprox));
}

TEST(VerifyOracleTest, SatInstanceSurvivesRefresh) {
  // F = (a & b) | (c & d); keep the BDD path disabled so every
  // non-structural query exercises the incremental SAT encoding.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId d = net.add_pi("d");
  NodeId n1 = net.add_and(a, b, "n1");
  NodeId n2 = net.add_and(c, d, "n2");
  net.add_po("f", net.add_or(n1, n2, "f"));
  Network approx = net;

  ApproxOracle oracle(net, approx, /*bdd_budget=*/4);
  EXPECT_FALSE(oracle.using_bdds());

  // Repair 1: drop the a&b term. G = c & d is a valid 1-approximation.
  approx.set_sop(n1, Sop::zero(2));
  oracle.refresh_approx();
  EXPECT_TRUE(oracle.verify(0, ApproxDirection::kOneApprox));
  const void* solver = oracle.sat_identity();
  ASSERT_NE(solver, nullptr);

  // Repair 2: widen n1 to just `a`. G = a | (c & d) is NOT one.
  approx.set_sop(n1, *Sop::parse(2, "1-"));
  oracle.refresh_approx();
  EXPECT_FALSE(oracle.verify(0, ApproxDirection::kOneApprox));
  ASSERT_EQ(oracle.last_counterexample().size(), 4u);
  EXPECT_TRUE(eval_po(approx, 0, oracle.last_counterexample()));
  EXPECT_FALSE(eval_po(net, 0, oracle.last_counterexample()));

  // Repair 3: restore exactness of n1 -> structural fast path again.
  approx.set_sop(n1, net.node(n1).sop);
  oracle.refresh_approx();
  EXPECT_TRUE(oracle.verify(0, ApproxDirection::kOneApprox));

  // Acceptance criterion: the solver instance never changed, so learned
  // clauses survived every repair; dirty cones were re-encoded in place.
  EXPECT_EQ(oracle.sat_identity(), solver);
  const ApproxOracle::Stats& s = oracle.oracle_stats();
  EXPECT_EQ(s.full_rebuilds, 1u);  // only the constructor
  EXPECT_EQ(s.incremental_refreshes, 3u);
  EXPECT_GT(s.sat_nodes_reencoded, 0u);
}

// The reference is a fresh oracle built on the mutated network after every
// repair: a full rebuild of both networks' BDDs and a new SAT instance.
TEST(VerifyOracleTest, IncrementalMatchesFullRebuild) {
  Network net = shared_cone_net();
  Network approx = net;
  ApproxOracle inc(net, approx);
  ASSERT_TRUE(inc.using_bdds());

  // A scripted repair sequence: shrink, widen, constant-ize, restore.
  NodeId n1 = *net.find_node("n1");
  NodeId n4 = *net.find_node("n4");
  NodeId n5 = *net.find_node("n5");
  const std::vector<std::pair<NodeId, Sop>> script = {
      {n1, Sop::zero(2)},
      {n4, *Sop::parse(2, "1-")},
      {n5, Sop::one(2)},
      {n4, net.node(n4).sop},
      {n1, *Sop::parse(2, "-1")},
      {n5, net.node(n5).sop},
  };
  for (const auto& [id, sop] : script) {
    approx.set_sop(id, sop);
    inc.refresh_approx();
    ApproxOracle full(net, approx);
    ASSERT_TRUE(full.using_bdds());
    for (int po = 0; po < net.num_pos(); ++po) {
      for (ApproxDirection dir :
           {ApproxDirection::kOneApprox, ApproxDirection::kZeroApprox}) {
        EXPECT_EQ(inc.verify(po, dir), full.verify(po, dir))
            << "po=" << po << " dir=" << static_cast<int>(dir);
        // Canonical BDDs make the minterm counts bit-identical, not
        // merely approximately equal.
        EXPECT_EQ(inc.approximation_pct(po, dir),
                  full.approximation_pct(po, dir))
            << "po=" << po << " dir=" << static_cast<int>(dir);
      }
    }
  }
  EXPECT_EQ(inc.oracle_stats().full_rebuilds, 1u);
  EXPECT_EQ(inc.oracle_stats().incremental_refreshes, script.size());
  EXPECT_GT(inc.oracle_stats().bdd_nodes_rebuilt, 0u);
}

// The stage-2 repair loop at Table-2 scale: term1 under 160 scripted
// repairs that alternately drop a multi-cube node's last cube and restore a
// node's exact cover, with every PO re-checked after each refresh. The
// incremental oracle must answer exactly what a fresh oracle on the mutated
// network answers, keep its unique table healthy, and re-derive at most a
// third of the node BDDs that rebuilding both networks per repair would:
// a work bound that stands in for a wall-clock speedup and cannot flake.
TEST(VerifyOracleTest, RepairScriptMatchesFreshOracles) {
  const Network net = make_benchmark("term1");
  constexpr size_t kBudget = 1u << 20;
  constexpr int kRepairs = 160;
  std::vector<NodeId> sites;  // multi-cube logic nodes across the circuit
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kLogic && n.sop.num_cubes() >= 2) {
      sites.push_back(id);
    }
  }
  ASSERT_FALSE(sites.empty());

  Network approx = net;
  ApproxOracle oracle(net, approx, kBudget);
  ASSERT_TRUE(oracle.using_bdds());
  const ApproxDirection dir = ApproxDirection::kOneApprox;
  for (int i = 0; i < kRepairs; ++i) {
    const NodeId id = sites[(i * 7919) % sites.size()];
    const Sop& exact = net.node(id).sop;
    if (i % 2 == 0) {
      std::vector<Cube> cubes(exact.cubes().begin(), exact.cubes().end() - 1);
      approx.set_sop(id, Sop(exact.num_vars(), std::move(cubes)));
    } else {
      approx.set_sop(id, exact);
    }
    oracle.refresh_approx();
    ApproxOracle fresh(net, approx, kBudget);
    for (int po = 0; po < net.num_pos(); ++po) {
      EXPECT_EQ(oracle.verify(po, dir), fresh.verify(po, dir))
          << "repair " << i << " po " << po;
      // Canonical BDDs make the minterm counts bit-identical.
      EXPECT_EQ(oracle.approximation_pct(po, dir),
                fresh.approximation_pct(po, dir))
          << "repair " << i << " po " << po;
    }
  }

  ASSERT_TRUE(oracle.using_bdds());
  EXPECT_LT(oracle.manager().stats().avg_probe_length(), 4.0);
  const ApproxOracle::Stats& s = oracle.oracle_stats();
  EXPECT_EQ(s.full_rebuilds, 1u);
  EXPECT_EQ(s.incremental_refreshes, static_cast<uint64_t>(kRepairs));
  std::vector<NodeId> roots;
  for (const PrimaryOutput& po : net.pos()) roots.push_back(po.driver);
  uint64_t cone_nodes = 0;  // logic nodes a full build derives per network
  for (NodeId id : net.cone_of(roots)) {
    cone_nodes += net.node(id).kind == NodeKind::kLogic ? 1 : 0;
  }
  const uint64_t per_build = 2 * cone_nodes;
  // Node BDDs derived after construction, rebuilds included.
  const uint64_t work =
      s.bdd_nodes_rebuilt + (s.full_rebuilds - 1) * per_build;
  const uint64_t rebuild_work = uint64_t{kRepairs} * per_build;
  std::printf("term1: %llu node BDDs derived vs %llu for a rebuild per "
              "repair (%.1fx less work)\n",
              static_cast<unsigned long long>(work),
              static_cast<unsigned long long>(rebuild_work),
              static_cast<double>(rebuild_work) /
                  static_cast<double>(std::max<uint64_t>(work, 1)));
  EXPECT_LE(3 * work, rebuild_work);
}

TEST(VerifyOracleTest, NoOpRefreshIsFree) {
  Network net = shared_cone_net();
  Network approx = net;
  ApproxOracle oracle(net, approx);
  oracle.refresh_approx();
  oracle.refresh_approx();
  EXPECT_EQ(oracle.oracle_stats().incremental_refreshes, 0u);
  EXPECT_EQ(oracle.oracle_stats().full_rebuilds, 1u);
}

// The order cache seeds every oracle rebuilt over the same original network
// with the previously converged variable order. Because BDD queries are
// order-invariant, the seeded oracles must agree bit-for-bit with the cold
// one on every verdict and every minterm count -- this is the screening /
// pct-sweep pattern, where many short-lived oracles are built over one net.
TEST(VerifyOracleTest, OrderCacheSeedsRepeatedOracleBuilds) {
  OrderCache::instance().clear();
  Network net = shared_cone_net();

  // Cold build: miss, sift if warranted, store the converged order.
  std::vector<uint8_t> cold_verdicts;
  std::vector<double> cold_pcts;
  std::vector<int> cold_order;
  {
    Network approx = net;
    NodeId n1 = *approx.find_node("n1");
    approx.set_sop(n1, Sop::zero(2));  // weaken: a real 1-approximation
    ApproxOracle oracle(net, approx);
    ASSERT_TRUE(oracle.using_bdds());
    for (int po = 0; po < net.num_pos(); ++po) {
      for (ApproxDirection dir :
           {ApproxDirection::kOneApprox, ApproxDirection::kZeroApprox}) {
        cold_verdicts.push_back(oracle.verify(po, dir) ? 1 : 0);
        cold_pcts.push_back(oracle.approximation_pct(po, dir));
      }
    }
    cold_order = oracle.manager().export_order();
  }
  const OrderCache::Stats after_cold = OrderCache::instance().stats();
  EXPECT_GE(after_cold.misses, 1u);
  EXPECT_GE(after_cold.stores, 1u);

  // Warm rebuilds: every fresh oracle over the same original must hit the
  // cache, adopt the stored order, and reproduce the cold answers exactly.
  for (int round = 0; round < 3; ++round) {
    Network approx = net;
    NodeId n1 = *approx.find_node("n1");
    approx.set_sop(n1, Sop::zero(2));
    ApproxOracle oracle(net, approx);
    ASSERT_TRUE(oracle.using_bdds());
    EXPECT_EQ(oracle.manager().export_order(), cold_order) << "round " << round;
    size_t q = 0;
    for (int po = 0; po < net.num_pos(); ++po) {
      for (ApproxDirection dir :
           {ApproxDirection::kOneApprox, ApproxDirection::kZeroApprox}) {
        EXPECT_EQ(oracle.verify(po, dir) ? 1 : 0, cold_verdicts[q])
            << "round " << round << " po " << po;
        // Bit-identical, not approximately equal: canonical BDDs count the
        // same minterms under any variable order.
        EXPECT_EQ(oracle.approximation_pct(po, dir), cold_pcts[q])
            << "round " << round << " po " << po;
        ++q;
      }
    }
  }
  EXPECT_GE(OrderCache::instance().stats().hits, after_cold.hits + 3u);
  OrderCache::instance().clear();
}

// Repeated refreshes of ONE oracle (the repair-loop pattern) must also stay
// bit-identical to a fresh oracle when the incremental one was seeded from
// the cache: refreshes reuse the seeded manager, every fresh oracle
// re-consults the cache.
TEST(VerifyOracleTest, OrderCacheSeededRefreshMatchesColdRebuild) {
  OrderCache::instance().clear();
  Network net = shared_cone_net();
  Network approx = net;
  ApproxOracle inc(net, approx);
  ASSERT_TRUE(inc.using_bdds());

  NodeId n1 = *net.find_node("n1");
  NodeId n5 = *net.find_node("n5");
  const std::vector<std::pair<NodeId, Sop>> script = {
      {n1, Sop::zero(2)},
      {n5, Sop::one(2)},
      {n1, net.node(n1).sop},
      {n5, net.node(n5).sop},
  };
  for (const auto& [id, sop] : script) {
    approx.set_sop(id, sop);
    inc.refresh_approx();
    ApproxOracle full(net, approx);  // hits the cache on every repair
    for (int po = 0; po < net.num_pos(); ++po) {
      for (ApproxDirection dir :
           {ApproxDirection::kOneApprox, ApproxDirection::kZeroApprox}) {
        EXPECT_EQ(inc.verify(po, dir), full.verify(po, dir));
        EXPECT_EQ(inc.approximation_pct(po, dir),
                  full.approximation_pct(po, dir));
      }
    }
  }
  // One fresh oracle per repair, each built over a warm cache.
  EXPECT_GE(OrderCache::instance().stats().hits, script.size());
  OrderCache::instance().clear();
}

// Stale-cache case: a structural mutation of the original network moves its
// content hash, so a fresh oracle must NOT adopt the order cached for the
// pre-mutation network -- it misses, re-sifts, and still answers correctly.
TEST(VerifyOracleTest, OrderCacheStaleEntryMissesAfterStructuralMutation) {
  OrderCache::instance().clear();
  Network net = shared_cone_net();
  const uint64_t hash_before = network_content_hash(net);
  {
    Network approx = net;
    ApproxOracle oracle(net, approx);
    ASSERT_TRUE(oracle.using_bdds());
  }  // leaves an entry cached under hash_before
  EXPECT_GE(OrderCache::instance().stats().stores, 1u);

  // Structural mutation of the ORIGINAL: re-wire n1 onto different fanins.
  // structure_version bumps and the content hash moves with it.
  NodeId n1 = *net.find_node("n1");
  NodeId x0 = *net.find_node("x0");
  NodeId x2 = *net.find_node("x2");
  const uint64_t version_before = net.structure_version();
  net.set_function(n1, {x0, x2}, *Sop::parse(2, "11"));
  EXPECT_GT(net.structure_version(), version_before);
  EXPECT_NE(network_content_hash(net), hash_before);

  const OrderCache::Stats before = OrderCache::instance().stats();
  Network approx = net;  // identical clone of the mutated network
  ApproxOracle oracle(net, approx);
  ASSERT_TRUE(oracle.using_bdds());
  // The stale entry was keyed under the old hash: this build must miss.
  EXPECT_GT(OrderCache::instance().stats().misses, before.misses);
  EXPECT_EQ(OrderCache::instance().stats().hits, before.hits);
  // And the freshly sifted oracle still answers correctly.
  for (int po = 0; po < net.num_pos(); ++po) {
    EXPECT_TRUE(oracle.verify(po, ApproxDirection::kOneApprox));
    EXPECT_TRUE(oracle.verify(po, ApproxDirection::kZeroApprox));
  }
  OrderCache::instance().clear();
}

TEST(VerifyOracleTest, StructuralChangeForcesRebuild) {
  Network net = shared_cone_net();
  Network approx = net;
  ApproxOracle oracle(net, approx);
  NodeId n1 = *approx.find_node("n1");
  NodeId x2 = *approx.find_node("x2");
  NodeId x0 = *approx.find_node("x0");
  // Re-wire n1 onto different fanins: a structural mutation.
  approx.set_function(n1, {x0, x2}, *Sop::parse(2, "11"));
  oracle.refresh_approx();
  EXPECT_EQ(oracle.oracle_stats().full_rebuilds, 2u);
  // Still answers correctly: n1 = x0 & x2 is not contained in x0 & x1.
  EXPECT_FALSE(oracle.verify(0, ApproxDirection::kOneApprox));
}

// Twelve PIs, t_k = x_{3k} x_{3k+1} x_{3k+2}; the output ORs the first
// `terms` products (F = t0 + t1 + t2 + t3). Given `parity_chain`, the
// output additionally ORs in a chain of XORs over all twelve PIs, whose
// node ids are stored there.
Network sum_of_triples(int terms,
                       std::vector<NodeId>* parity_chain = nullptr) {
  Network net;
  std::vector<NodeId> x;
  for (int i = 0; i < 12; ++i) {
    x.push_back(net.add_pi("x" + std::to_string(i)));
  }
  std::vector<NodeId> fanins;
  for (int k = 0; k < 4; ++k) {
    fanins.push_back(
        net.add_and(net.add_and(x[3 * k], x[3 * k + 1]), x[3 * k + 2]));
  }
  fanins.resize(terms);
  if (parity_chain != nullptr) {
    NodeId p = x[0];
    for (int i = 1; i < 12; ++i) {
      p = net.add_xor(p, x[i]);
      parity_chain->push_back(p);
    }
    fanins.push_back(p);
  }
  const int n = static_cast<int>(fanins.size());
  Sop sop(n);
  for (int k = 0; k < n; ++k) {
    Cube c = Cube::full(n);
    c.set(k, LitCode::kPos);
    sop.add_cube(c);
  }
  net.add_po("f", net.add_node(fanins, std::move(sop), "f"));
  return net;
}

// |G|/|F| for G = t0 + t1 + t2 and F = t0 + ... + t3, each t_k true with
// probability 1/8 (exact in binary floating point).
const double kThreeOfFourTriples =
    (1.0 - 343.0 / 512.0) / (1.0 - 2401.0 / 4096.0);

// Live BDD nodes after a cold build of the pair (no reorder at this size).
size_t cold_build_nodes(const Network& net, const Network& approx) {
  OrderCache::instance().clear();
  ApproxOracle probe(net, approx);
  EXPECT_TRUE(probe.using_bdds());
  const size_t nodes = probe.manager().live_nodes();
  OrderCache::instance().clear();
  return nodes;
}

TEST(VerifyOracleTest, QueryOverflowRebuildsBddsForPercentage) {
  const Network net = sum_of_triples(4);
  const Network approx = sum_of_triples(3);
  const ApproxDirection dir = ApproxDirection::kOneApprox;
  // One node of headroom: the build fits, but the implication query needs
  // the complement of F and overflows.
  const size_t budget = cold_build_nodes(net, approx) + 1;
  ApproxOracle oracle(net, approx, budget);
  ASSERT_TRUE(oracle.using_bdds());
  EXPECT_TRUE(oracle.verify(0, dir));  // proven by the SAT fallback
  ASSERT_FALSE(oracle.using_bdds());
  EXPECT_EQ(oracle.oracle_stats().sat_queries, 1u);
  // No build failed, so a fresh oracle would build and count exactly; the
  // shared one must rebuild rather than sample.
  EXPECT_EQ(oracle.approximation_pct(0, dir), kThreeOfFourTriples);
  EXPECT_TRUE(oracle.using_bdds());
  EXPECT_EQ(approximation_percentage(net, approx, 0, dir, budget),
            kThreeOfFourTriples);
  OrderCache::instance().clear();
}

TEST(VerifyOracleTest, PercentageRetriesBuildAfterApproxShrinks) {
  const Network net = sum_of_triples(4);
  std::vector<NodeId> chain;
  Network approx = sum_of_triples(3, &chain);
  const ApproxDirection dir = ApproxDirection::kOneApprox;
  const size_t with_parity = cold_build_nodes(net, approx);
  // The repair: drop the parity term and zero the chain (id-preserving).
  Network repaired = approx;
  const NodeId out = repaired.po(0).driver;
  const Sop three = *Sop::parse(4, "1---\n-1--\n--1-");
  auto repair = [&](Network& g) {
    g.set_sop(out, three);
    for (NodeId id : chain) g.set_sop(id, Sop::zero(2));
  };
  repair(repaired);
  const size_t after_repair = cold_build_nodes(net, repaired);
  ASSERT_LT(after_repair + 1, with_parity);

  // The first build fits the original but overflows on the approx side.
  const size_t budget = with_parity - 1;
  ApproxOracle oracle(net, approx, budget);
  ASSERT_FALSE(oracle.using_bdds());
  repair(approx);
  oracle.refresh_approx();
  EXPECT_FALSE(oracle.using_bdds());  // the repair loop stays on SAT
  // A fresh oracle over the repaired pair fits the budget and counts
  // exactly, so the sweep retries the build once instead of sampling.
  EXPECT_EQ(oracle.approximation_pct(0, dir), kThreeOfFourTriples);
  EXPECT_TRUE(oracle.using_bdds());
  EXPECT_EQ(approximation_percentage(net, approx, 0, dir, budget),
            kThreeOfFourTriples);
  OrderCache::instance().clear();
}

TEST(VerifyOracleTest, PercentageSamplesWhenOriginalOverflows) {
  const Network net = sum_of_triples(4);
  Network approx = sum_of_triples(4);
  // Four nodes cannot hold the original's cones: every build overflows on
  // the original, so the sweep samples without retrying.
  ApproxOracle oracle(net, approx, /*bdd_budget=*/4);
  ASSERT_FALSE(oracle.using_bdds());
  approx.set_sop(approx.po(0).driver,
                 *Sop::parse(4, "1---\n-1--\n--1-"));
  oracle.refresh_approx();
  const ApproxDirection dir = ApproxDirection::kOneApprox;
  const double sampled = oracle.approximation_pct(0, dir);
  EXPECT_FALSE(oracle.using_bdds());
  EXPECT_EQ(sampled,
            approximation_percentage(net, approx, 0, dir, /*bdd_budget=*/4));
  EXPECT_NE(sampled, kThreeOfFourTriples);
}

// Parity of `width` PIs, as a chain (`tree` false) or a balanced tree.
Network parity(int width, bool tree) {
  Network net;
  std::vector<NodeId> layer;
  for (int i = 0; i < width; ++i) {
    layer.push_back(net.add_pi("x" + std::to_string(i)));
  }
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    if (tree) {
      for (size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(net.add_xor(layer[i], layer[i + 1]));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
    } else {
      next.push_back(net.add_xor(layer[0], layer[1]));
      next.insert(next.end(), layer.begin() + 2, layer.end());
    }
    layer.swap(next);
  }
  net.add_po("p", layer[0]);
  return net;
}

TEST(VerifyOracleTest, ExhaustedSatQueryIsNotSolvedTwice) {
  // G (a parity tree) equals F (a parity chain), so G => F holds, but
  // refuting G & ~F takes the solver more than one conflict.
  const Network net = parity(12, /*tree=*/false);
  Network approx = parity(12, /*tree=*/true);
  const ApproxDirection dir = ApproxDirection::kOneApprox;
  ApproxOracle oracle(net, approx, /*bdd_budget=*/4);
  ASSERT_FALSE(oracle.using_bdds());
  oracle.set_sat_conflict_budget(1);

  trace::reset();
  trace::set_trace_enabled(true);
  const trace::Counter& solves = trace::counter("sat.solves");
  const trace::Counter& conflicts = trace::counter("sat.conflicts");
  EXPECT_FALSE(oracle.verify(0, dir));  // budget exhausted
  EXPECT_EQ(solves.value(), 1);
  const int64_t spent = conflicts.value();
  EXPECT_GT(spent, 0);

  // The identical question on the unchanged network: same answer, no
  // solver work.
  EXPECT_FALSE(oracle.verify(0, dir));
  EXPECT_TRUE(oracle.last_counterexample().empty());
  EXPECT_EQ(solves.value(), 1);
  EXPECT_EQ(conflicts.value(), spent);
  EXPECT_EQ(oracle.oracle_stats().sat_queries, 2u);

  // A different budget is a different question.
  oracle.set_sat_conflict_budget(2);
  EXPECT_FALSE(oracle.verify(0, dir));
  EXPECT_EQ(solves.value(), 2);
  EXPECT_GT(conflicts.value(), spent);

  // So is the same question on a mutated network: rewriting a node with
  // its own cover keeps G's function but moves the network's version.
  const uint64_t version = approx.version();
  const NodeId root = approx.po(0).driver;
  approx.set_sop(root, approx.node(root).sop);
  ASSERT_NE(approx.version(), version);
  oracle.refresh_approx();
  EXPECT_FALSE(oracle.verify(0, dir));
  EXPECT_EQ(solves.value(), 3);

  // Without the cap the implication is proven.
  oracle.set_sat_conflict_budget(-1);
  EXPECT_TRUE(oracle.verify(0, dir));
  EXPECT_EQ(solves.value(), 4);
  trace::set_trace_enabled(false);
  trace::reset();
}

}  // namespace
}  // namespace apx
