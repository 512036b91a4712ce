// Order-invariance and dynamic-reordering tests for the BDD manager's
// permutation layer (bdd.hpp): every query — evaluate, sat_count, implies,
// boolean_difference — must be bit-identical whether the manager runs the
// identity order, a random permutation, the structural static order
// (network/ordering.hpp), or sifts dynamically mid-build. The independent
// reference is the truth-table engine (src/tt), composed over the network.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/network_bdd.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/task_pool.hpp"
#include "network/ordering.hpp"
#include "tt/truth_table.hpp"

namespace apx {
namespace {

Network random_network(std::mt19937& rng, int pis, int gates) {
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) {
    pool.push_back(net.add_pi("p" + std::to_string(i)));
  }
  for (int g = 0; g < gates; ++g) {
    NodeId a = pool[rng() % pool.size()];
    NodeId b = pool[rng() % pool.size()];
    switch (rng() % 4) {
      case 0:
        pool.push_back(net.add_and(a, b));
        break;
      case 1:
        pool.push_back(net.add_or(a, b));
        break;
      case 2:
        pool.push_back(net.add_xor(a, b));
        break;
      case 3:
        pool.push_back(net.add_not(a));
        break;
    }
  }
  net.add_po("f", pool.back());
  net.add_po("g", pool[pool.size() / 2]);
  return net;
}

// Global truth table of every node, composed bottom-up with the tt engine
// (independent of the BDD package: different recursion, different memo).
std::vector<TruthTable> global_tables(const Network& net) {
  const int n = net.num_pis();
  std::vector<TruthTable> tt(net.num_nodes(), TruthTable::zeros(n));
  for (NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    switch (node.kind) {
      case NodeKind::kConst0:
        tt[id] = TruthTable::zeros(n);
        break;
      case NodeKind::kConst1:
        tt[id] = TruthTable::ones(n);
        break;
      case NodeKind::kPi:
        tt[id] = TruthTable::variable(n, net.pi_index(id));
        break;
      case NodeKind::kLogic: {
        TruthTable acc = TruthTable::zeros(n);
        for (const Cube& c : node.sop.cubes()) {
          TruthTable cube_tt = TruthTable::ones(n);
          for (int v = 0; v < c.num_vars(); ++v) {
            LitCode code = c.get(v);
            if (code == LitCode::kFree) continue;
            const TruthTable& fanin = tt[node.fanins[v]];
            cube_tt &= (code == LitCode::kPos) ? fanin : ~fanin;
          }
          acc |= cube_tt;
        }
        tt[id] = acc;
        break;
      }
    }
  }
  return tt;
}

double tt_count(const TruthTable& t) {
  double count = 0.0;
  for (uint64_t m = 0; m < (uint64_t{1} << t.num_vars()); ++m) {
    count += t.get(m) ? 1.0 : 0.0;
  }
  return count;
}

std::vector<int> random_order(int n, uint32_t seed) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

// One manager configuration under test: an explicit level_to_var order
// plus optionally forced sifting (tiny trigger threshold) mid-build.
struct OrderConfig {
  const char* name;
  std::vector<int> order;
  bool sift;
};

// Builds both PO cones under `cfg` and checks every query against the
// truth-table reference. Exercises the cooperative reorder path exactly
// the way NetworkBdds/ApproxOracle do (registered refs + polling).
void check_config(const Network& net, const std::vector<TruthTable>& tt,
                  const OrderConfig& cfg) {
  const int n = net.num_pis();
  BddManager mgr(n, 1u << 20, cfg.order);
  mgr.set_auto_reorder(cfg.sift);
  if (cfg.sift) mgr.set_reorder_threshold(48);

  std::vector<BddManager::Ref> po(net.num_pos(), BddManager::kInvalidRef);
  mgr.register_external_refs(&po);
  for (int i = 0; i < net.num_pos(); ++i) {
    auto ref = build_po_bdd(mgr, net, i);
    ASSERT_TRUE(ref.has_value()) << cfg.name;
    po[i] = *ref;
  }
  if (cfg.sift) {
    mgr.reorder();  // settle: refs in `po` are rewritten in place
    EXPECT_FALSE(mgr.reorder_pending());
  }

  // The permutation layer must remain a permutation whatever sifting did.
  std::vector<char> seen(n, 0);
  for (int l = 0; l < n; ++l) {
    int v = mgr.var_at_level(l);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    EXPECT_EQ(mgr.level_of_var(v), l) << cfg.name;
    EXPECT_FALSE(seen[v]) << cfg.name;
    seen[v] = 1;
  }

  for (int i = 0; i < net.num_pos(); ++i) {
    const TruthTable& ref_tt = tt[net.pos()[i].driver];
    for (uint64_t m = 0; m < (uint64_t{1} << n); ++m) {
      ASSERT_EQ(mgr.evaluate(po[i], m), ref_tt.get(m))
          << cfg.name << " po " << i << " minterm " << m;
    }
    // Counting and Boolean difference go through sat_fraction/cofactor,
    // which recurse by level: exact equality, not approximate.
    EXPECT_EQ(mgr.sat_count(po[i]), tt_count(ref_tt)) << cfg.name;
    for (int v = 0; v < n; ++v) {
      BddManager::Ref diff = mgr.boolean_difference(po[i], v);
      EXPECT_EQ(mgr.sat_count(diff), tt_count(ref_tt.boolean_difference(v)))
          << cfg.name << " po " << i << " var " << v;
    }
  }
  const TruthTable& f = tt[net.pos()[0].driver];
  const TruthTable& g = tt[net.pos()[1].driver];
  EXPECT_EQ(mgr.implies(po[0], po[1]), (f & ~g) == TruthTable::zeros(n))
      << cfg.name;
  mgr.unregister_external_refs(&po);
}

class BddOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddOrderProperty, QueriesInvariantUnderOrdering) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const int pis = 6 + static_cast<int>(rng() % 5);  // 6..10 PIs
    Network net = random_network(rng, pis, 28);
    std::vector<TruthTable> tt = global_tables(net);
    std::vector<OrderConfig> configs;
    configs.push_back({"identity", {}, false});
    configs.push_back({"static", static_pi_order(net), false});
    configs.push_back({"random-a", random_order(pis, GetParam() * 31 + trial), false});
    configs.push_back({"random-b", random_order(pis, GetParam() * 57 + trial), false});
    configs.push_back({"identity+sift", {}, true});
    configs.push_back({"static+sift", static_pi_order(net), true});
    for (const OrderConfig& cfg : configs) check_config(net, tt, cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddOrderProperty,
                         ::testing::Values(3, 17, 29, 71));

// Sifting keeps every externally held Ref valid: adjacent-level swaps are
// in place, and the GC phase rewrites registered vectors through the
// remap. Hold the full node-BDD vector of a comparator (the classic
// order-sensitive function), force repeated reorders, and re-check every
// node function after each one.
TEST(BddSifting, RefsSurviveRepeatedReorders) {
  Network net = make_comparator(6);  // 12 PIs, separated (bad) PI order
  std::vector<TruthTable> tt = global_tables(net);
  BddManager mgr(net.num_pis(), 1u << 20);  // identity order
  mgr.set_auto_reorder(false);

  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);

  const size_t natural_size = mgr.live_nodes();
  for (int round = 0; round < 3; ++round) {
    mgr.reorder();
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (refs[id] == kNoBddRef) continue;
      for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); m += 7) {
        ASSERT_EQ(mgr.evaluate(refs[id], m), tt[id].get(m))
            << "round " << round << " node " << id << " minterm " << m;
      }
    }
  }
  // The separated order is exponentially bad for a comparator; sifting
  // must find a materially smaller (interleaved-like) order.
  EXPECT_LT(mgr.live_nodes(), natural_size);
  EXPECT_GE(mgr.stats().reorder_runs, 3u);
  mgr.unregister_external_refs(&refs);
}

// Unregistered callers get the GC remap back from reorder() and must be
// able to chase their refs through it (garbage_collect contract).
TEST(BddSifting, ReorderRemapCoversExtraRoots) {
  Network net = make_comparator(4);
  std::vector<TruthTable> tt = global_tables(net);
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(false);

  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);

  std::vector<BddManager::Ref> remap = mgr.reorder(refs);  // not registered
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (refs[id] == kNoBddRef) continue;
    BddManager::Ref moved = remap[refs[id]];
    ASSERT_NE(moved, BddManager::kInvalidRef);
    for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); ++m) {
      ASSERT_EQ(mgr.evaluate(moved, m), tt[id].get(m));
    }
  }
}

// With no registered vectors and no extras, reorder() must not collect
// the arena out from under the caller: identity map, nothing freed.
TEST(BddSifting, ReorderWithoutRootsIsIdentity) {
  BddManager mgr(4);
  BddManager::Ref f = mgr.bdd_and(mgr.var(0), mgr.var(2));
  size_t before = mgr.live_nodes();
  std::vector<BddManager::Ref> remap = mgr.reorder();
  EXPECT_EQ(mgr.live_nodes(), before);
  EXPECT_EQ(remap[f], f);
  EXPECT_TRUE(mgr.evaluate(f, 0b0101));
}

// make_node only latches the trigger; reorder() clears it, shrinks the
// comparator, and backs the threshold off so it cannot thrash.
TEST(BddSifting, AutoTriggerLatchesAndClears) {
  Network net = make_comparator(8);  // 16 PIs: identity order blows up
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(true);
  mgr.set_reorder_threshold(128);

  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  // build_cone_bdds polls the latch and reorders internally; afterwards
  // the latch must be clear and at least one sift must have run.
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  EXPECT_FALSE(mgr.reorder_pending());
  EXPECT_GE(mgr.stats().reorder_runs, 1u);

  // Spot-check the comparator functions (a == b and a > b on 8+8 bits).
  std::mt19937 rng(99);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng() % 256, b = rng() % 256;
    uint64_t input = a | (b << 8);
    EXPECT_EQ(mgr.evaluate(refs[roots[0]], input), a == b);
    EXPECT_EQ(mgr.evaluate(refs[roots[1]], input), a > b);
  }
}

// The static structural order alone (no sifting) must already beat the
// separated identity order on the comparator: interleaving is the known
// linear-size order for it.
TEST(BddOrdering, StaticOrderBeatsIdentityOnComparator) {
  Network net = make_comparator(8);
  size_t identity_size, static_size;
  {
    BddManager mgr(net.num_pis(), 1u << 20);
    mgr.set_auto_reorder(false);
    auto f = build_po_bdd(mgr, net, 1);
    ASSERT_TRUE(f.has_value());
    identity_size = mgr.size(*f);
  }
  {
    BddManager mgr(net.num_pis(), 1u << 20, static_pi_order(net));
    mgr.set_auto_reorder(false);
    auto f = build_po_bdd(mgr, net, 1);
    ASSERT_TRUE(f.has_value());
    static_size = mgr.size(*f);
  }
  EXPECT_LT(static_size * 4, identity_size);
}

// Regression (ISSUE 6 satellite): set_reorder_threshold must re-evaluate
// the latched request against the new threshold. Raising it above the
// current live count clears a pending reorder instead of forcing a
// spurious full sift at the next safe point; lowering it below the live
// count latches one without waiting for another make_node.
TEST(BddSifting, SetReorderThresholdReevaluatesLatch) {
  Network net = make_comparator(4);
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(true);
  mgr.set_reorder_threshold(16);

  // Build WITHOUT polling the latch so it stays pending.
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  mgr.set_auto_reorder(false);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.set_auto_reorder(true);
  mgr.set_reorder_threshold(16);  // live >> 16: latches immediately
  ASSERT_TRUE(mgr.reorder_pending());

  // Raising the threshold above the live count must clear the latch...
  mgr.set_reorder_threshold(2 * mgr.live_nodes());
  EXPECT_FALSE(mgr.reorder_pending());
  // ...and lowering it back below must re-latch.
  mgr.set_reorder_threshold(mgr.live_nodes() / 2);
  EXPECT_TRUE(mgr.reorder_pending());
  mgr.set_reorder_threshold(2 * mgr.live_nodes());
  EXPECT_FALSE(mgr.reorder_pending());
  EXPECT_EQ(mgr.stats().reorder_runs, 0u);  // latch games never sifted
}

// Regression (ISSUE 6 satellite): the sifting convergence check used a
// `prev / 50` tolerance, which is 0 for tables under 50 nodes — the pass
// loop then compared with zero slack instead of requiring a real gain.
// On a small, already-optimal table sifting must converge (single pass,
// no size growth, functions intact).
TEST(BddSifting, SmallTableConvergence) {
  Network net = make_comparator(2);  // 4 PIs: well under 50 nodes
  std::vector<TruthTable> tt = global_tables(net);
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(false);
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);
  ASSERT_LT(mgr.live_nodes(), 50u);

  const size_t before = mgr.live_nodes();
  mgr.reorder();  // converges; the old zero-tolerance check is the bug
  EXPECT_LE(mgr.live_nodes(), before);
  EXPECT_EQ(mgr.stats().reorder_runs, 1u);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (refs[id] == kNoBddRef) continue;
    for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); ++m) {
      ASSERT_EQ(mgr.evaluate(refs[id], m), tt[id].get(m));
    }
  }
  mgr.unregister_external_refs(&refs);
}

// export_order round-trips through seed_order: a fresh manager seeded with
// a sifted manager's order carries the identical permutation.
TEST(BddOrdering, ExportSeedOrderRoundTrip) {
  Network net = make_comparator(6);
  BddManager mgr(net.num_pis(), 1u << 20, static_pi_order(net));
  mgr.set_auto_reorder(false);
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);
  mgr.reorder();
  std::vector<int> order = mgr.export_order();
  ASSERT_EQ(order.size(), static_cast<size_t>(net.num_pis()));
  mgr.unregister_external_refs(&refs);

  BddManager seeded(net.num_pis(), 1u << 20);
  seeded.seed_order(order);
  for (int l = 0; l < net.num_pis(); ++l) {
    EXPECT_EQ(seeded.var_at_level(l), mgr.var_at_level(l));
  }

  // Seeding is only legal before any internal node exists.
  BddManager dirty(net.num_pis(), 1u << 20);
  dirty.bdd_and(dirty.var(0), dirty.var(1));
  EXPECT_THROW(dirty.seed_order(order), std::logic_error);
  // And the permutation itself is validated.
  std::vector<int> bogus(net.num_pis(), 0);
  BddManager empty(net.num_pis(), 1u << 20);
  EXPECT_THROW(empty.seed_order(bogus), std::logic_error);
}

// The reorder budget absorbs requests while the arena stays at or below
// the budget: no sift, refs untouched, identity remap, and the skip is
// counted. Outgrowing the budget sifts as usual.
TEST(BddSifting, ReorderBudgetAbsorbsRequests) {
  Network net = make_comparator(6);
  BddManager mgr(net.num_pis(), 1u << 20, static_pi_order(net));
  mgr.set_auto_reorder(false);
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);

  mgr.set_reorder_budget(2 * mgr.live_nodes());
  std::vector<BddManager::Ref> before = refs;
  std::vector<BddManager::Ref> remap = mgr.reorder();
  EXPECT_EQ(mgr.stats().reorder_runs, 0u);
  EXPECT_EQ(mgr.stats().reorder_skipped, 1u);
  EXPECT_EQ(refs, before);  // identity: nothing moved
  for (BddManager::Ref r : before) {
    if (r != kNoBddRef) EXPECT_EQ(remap[r], r);
  }

  // Below-budget arena: a second request is absorbed too.
  mgr.reorder();
  EXPECT_EQ(mgr.stats().reorder_skipped, 2u);

  // Disarm the budget: the same request now really sifts.
  mgr.set_reorder_budget(0);
  mgr.reorder();
  EXPECT_EQ(mgr.stats().reorder_runs, 1u);
  mgr.unregister_external_refs(&refs);
}

// Seeding a converged order through the OrderCache must reproduce the
// cold-sift results bit-for-bit: same permutation, same query answers.
// This is the cache analogue of QueriesInvariantUnderOrdering — stronger,
// because the seeded manager must also skip re-sifting (budget armed).
TEST(OrderCacheTest, SeededOrderMatchesColdSift) {
  OrderCache::instance().clear();
  Network net = make_comparator(6);
  std::vector<TruthTable> tt = global_tables(net);

  // Cold build: miss, sift, store.
  std::vector<double> cold_counts;
  std::vector<int> cold_order;
  {
    NetworkBdds bdds(net);
    cold_order = bdds.manager().export_order();
    for (int po = 0; po < net.num_pos(); ++po) {
      cold_counts.push_back(bdds.manager().sat_count(bdds.po_ref(po)));
    }
  }
  ASSERT_GE(OrderCache::instance().stats().misses, 1u);
  ASSERT_GE(OrderCache::instance().stats().stores, 1u);

  // Warm rebuilds: hit, seeded, identical answers and order every time.
  for (int round = 0; round < 3; ++round) {
    uint64_t hits_before = OrderCache::instance().stats().hits;
    NetworkBdds bdds(net);
    EXPECT_GT(OrderCache::instance().stats().hits, hits_before);
    EXPECT_EQ(bdds.manager().export_order(), cold_order);
    for (int po = 0; po < net.num_pos(); ++po) {
      EXPECT_EQ(bdds.manager().sat_count(bdds.po_ref(po)),
                cold_counts[po]);
      const TruthTable& ref_tt = tt[net.pos()[po].driver];
      for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); m += 5) {
        ASSERT_EQ(bdds.manager().evaluate(bdds.po_ref(po), m),
                  ref_tt.get(m));
      }
    }
  }
  OrderCache::instance().clear();
}

// Content-hash staleness: any mutation — a local SOP rewrite or a
// structural rewiring — moves the hash, so a stale converged order is
// unreachable by construction (the mutated network misses and re-sifts).
TEST(OrderCacheTest, MutationMovesContentHash) {
  Network net = make_comparator(4);
  Network clone = net;
  EXPECT_EQ(network_content_hash(net), network_content_hash(clone));

  // Local function change (bumps version, not structure_version).
  NodeId node = kNullNode;
  for (NodeId id = 0; id < clone.num_nodes(); ++id) {
    if (clone.node(id).kind == NodeKind::kLogic) {
      node = id;
      break;
    }
  }
  ASSERT_NE(node, kNullNode);
  uint64_t sv_before = clone.structure_version();
  clone.set_sop(node, Sop::zero(clone.node(node).sop.num_vars()));
  EXPECT_EQ(clone.structure_version(), sv_before);
  EXPECT_NE(network_content_hash(net), network_content_hash(clone));

  // Structural change (bumps structure_version): also moves the hash.
  Network clone2 = net;
  NodeId a = clone2.pis()[0];
  NodeId b = clone2.pis()[1];
  clone2.set_function(node, {a, b}, *Sop::parse(2, "11"));
  EXPECT_GT(clone2.structure_version(), net.structure_version());
  EXPECT_NE(network_content_hash(net), network_content_hash(clone2));
}

// Cache mechanics: width-mismatched hits are misses (hash-collision
// guard), keep-best stores prefer strictly smaller converged sizes, and
// clear() really empties.
TEST(OrderCacheTest, StorePolicyAndCollisionGuard) {
  OrderCache& cache = OrderCache::instance();
  cache.clear();
  const uint64_t key = 0xABCDEF;
  cache.store(key, {{1, 0, 2}, 100});
  ASSERT_TRUE(cache.lookup(key, 3).has_value());
  EXPECT_FALSE(cache.lookup(key, 4).has_value()) << "width mismatch = miss";

  cache.store(key, {{0, 1, 2}, 200});  // worse: rejected
  EXPECT_EQ(cache.lookup(key, 3)->converged_live, 100u);
  cache.store(key, {{2, 1, 0}, 50});  // better: replaces
  EXPECT_EQ(cache.lookup(key, 3)->converged_live, 50u);
  EXPECT_EQ(cache.lookup(key, 3)->level_to_var, (std::vector<int>{2, 1, 0}));
  EXPECT_GE(cache.stats().stores_rejected, 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key, 3).has_value());
  cache.clear();
}

// The LRU cap bounds the process-wide cache: stores past the cap evict the
// least-recently-used entry (lookups and re-stores refresh recency), the
// eviction counter advances, and clear() restores the default capacity.
TEST(OrderCacheTest, LruCapEvictsLeastRecentlyUsed) {
  OrderCache& cache = OrderCache::instance();
  cache.clear();
  EXPECT_EQ(cache.max_entries(), OrderCache::kDefaultMaxEntries);
  cache.set_max_entries(3);
  cache.store(1, {{0}, 10});
  cache.store(2, {{0}, 10});
  cache.store(3, {{0}, 10});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  ASSERT_TRUE(cache.lookup(1, 1).has_value());  // 1 is now most recent
  cache.store(4, {{0}, 10});                    // evicts LRU = 2
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(2, 1).has_value());
  EXPECT_TRUE(cache.lookup(1, 1).has_value());
  EXPECT_TRUE(cache.lookup(3, 1).has_value());
  EXPECT_TRUE(cache.lookup(4, 1).has_value());

  // A keep-best-rejected re-store still refreshes recency: the lookups
  // above (1, then 3, then 4) left 1 least-recent; re-storing 1 touches
  // it, so the next overflow must evict 3 instead.
  cache.store(1, {{0}, 99});  // rejected (worse), but touches
  cache.store(5, {{0}, 10});  // evicts LRU = 3
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.lookup(3, 1).has_value());
  EXPECT_TRUE(cache.lookup(1, 1).has_value());

  // Shrinking the cap below the current size evicts immediately.
  cache.set_max_entries(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 4u);

  cache.clear();
  EXPECT_EQ(cache.max_entries(), OrderCache::kDefaultMaxEntries);
}

// static_pi_order is a permutation of the PI indices for every benchmark
// circuit (the BddManager constructor asserts this too, but a direct test
// localizes failures to the heuristic).
TEST(BddOrdering, StaticOrderIsPermutation) {
  for (const std::string& name : benchmark_names()) {
    Network net = make_benchmark(name);
    std::vector<int> order = static_pi_order(net);
    ASSERT_EQ(order.size(), static_cast<size_t>(net.num_pis())) << name;
    std::vector<char> seen(net.num_pis(), 0);
    for (int v : order) {
      ASSERT_GE(v, 0) << name;
      ASSERT_LT(v, net.num_pis()) << name;
      EXPECT_FALSE(seen[v]) << name;
      seen[v] = 1;
    }
  }
}


// FNV-1a over 64-bit words.
uint64_t fnv1a(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Golden sift outcomes: one forced reorder() after a static-order build of
// every PO cone (no auto-trigger). Sifting is deterministic — live_internal()
// is exact at every stop — so the converged order, the live count and the
// build peak are fixed numbers; a change to the swap machinery that alters
// any sift decision shows up here.
TEST(BddSiftGolden, ForcedReorderAfterStaticBuild) {
  struct Golden {
    const char* circuit;
    uint64_t order_hash;  // FNV-1a over export_order()
    size_t live;
    uint64_t peak;
  };
  const Golden golden[] = {
      {"cmb", 0x0B6866A8767FCB45ULL, 85, 212},
      {"term1", 0xB98E9FD77D54CE64ULL, 1693, 4775},
      {"x1", 0x7FC6A9B527DE61F6ULL, 23333, 298953},
      {"i2", 0xF7D837961B59752DULL, 15762, 40911},
  };
  for (const Golden& g : golden) {
    Network net = make_benchmark(g.circuit);
    BddManager mgr(net.num_pis(), 8u << 20, static_pi_order(net));
    mgr.set_auto_reorder(false);
    std::vector<NodeId> roots;
    for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
    std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
    mgr.register_external_refs(&refs);
    mgr.reorder();
    uint64_t hash = 0xCBF29CE484222325ULL;
    for (int v : mgr.export_order()) hash = fnv1a(hash, static_cast<uint64_t>(v));
    EXPECT_EQ(hash, g.order_hash) << g.circuit;
    EXPECT_EQ(mgr.live_nodes(), g.live) << g.circuit;
    EXPECT_EQ(mgr.stats().peak_nodes, g.peak) << g.circuit;
    EXPECT_EQ(mgr.stats().reorder_runs, 1u) << g.circuit;
    mgr.unregister_external_refs(&refs);
  }
}

// Canonicity across many mid-build sifts. A pool of random functions (and,
// or, not, ite over earlier pool entries) is built with the growth latch
// re-armed a few dozen nodes above the live count after every reorder, so
// the manager re-sifts over and over between operations. Afterwards every
// pool entry must match the truth-table engine, and replaying every
// operation on the final arena must return the very same Ref and allocate
// nothing: the flat unique table rebuilt after sifting holds every live
// node exactly once.
TEST(BddSifting, CanonicalAcrossRepeatedMidBuildSifts) {
  constexpr int kVars = 9;
  constexpr int kOps = 180;
  struct Op {
    int kind, a, b, c;
  };
  for (uint32_t seed : {5u, 23u, 61u}) {
    std::mt19937 rng(seed);
    BddManager mgr(kVars, 1u << 20);
    mgr.set_auto_reorder(true);
    mgr.set_reorder_threshold(32);
    std::vector<BddManager::Ref> pool;
    std::vector<TruthTable> tt;
    mgr.register_external_refs(&pool);
    for (int v = 0; v < kVars; ++v) {
      pool.push_back(mgr.var(v));
      tt.push_back(TruthTable::variable(kVars, v));
    }
    auto apply = [&](const Op& op) {
      switch (op.kind) {
        case 0:
          return mgr.bdd_and(pool[op.a], pool[op.b]);
        case 1:
          return mgr.bdd_or(pool[op.a], pool[op.b]);
        case 2:
          return mgr.bdd_not(pool[op.a]);
        default:
          return mgr.bdd_ite(pool[op.a], pool[op.b], pool[op.c]);
      }
    };
    std::vector<Op> ops;
    for (int k = 0; k < kOps; ++k) {
      const int n = static_cast<int>(pool.size());
      const Op op{static_cast<int>(rng() % 4), static_cast<int>(rng() % n),
                  static_cast<int>(rng() % n), static_cast<int>(rng() % n)};
      const BddManager::Ref r = apply(op);
      switch (op.kind) {
        case 0:
          tt.push_back(tt[op.a] & tt[op.b]);
          break;
        case 1:
          tt.push_back(tt[op.a] | tt[op.b]);
          break;
        case 2:
          tt.push_back(~tt[op.a]);
          break;
        default:
          tt.push_back((tt[op.a] & tt[op.b]) | (~tt[op.a] & tt[op.c]));
          break;
      }
      pool.push_back(r);
      ops.push_back(op);
      if (mgr.reorder_pending()) {
        mgr.reorder();  // rewrites `pool` in place
        mgr.set_reorder_threshold(mgr.live_nodes() + 24);
      }
    }
    mgr.reorder();
    EXPECT_GE(mgr.stats().reorder_runs, 10u) << "seed " << seed;

    for (size_t i = 0; i < pool.size(); ++i) {
      for (uint64_t m = 0; m < (uint64_t{1} << kVars); ++m) {
        ASSERT_EQ(mgr.evaluate(pool[i], m), tt[i].get(m))
            << "seed " << seed << " pool " << i << " minterm " << m;
      }
    }
    const size_t live = mgr.live_nodes();
    for (int k = 0; k < kOps; ++k) {
      ASSERT_EQ(apply(ops[k]), pool[kVars + k]) << "seed " << seed << " op " << k;
    }
    EXPECT_EQ(mgr.live_nodes(), live) << "seed " << seed;
    mgr.unregister_external_refs(&pool);
  }
}

// ---- orderings across the benchmark suite --------------------------------

enum OrderMode { kNatural = 0, kStatic = 1, kSift = 2 };
constexpr const char* kOrderNames[3] = {"natural", "static", "static+sift"};

// Approximation under test: drop the last cube of a few spread-out
// multi-cube nodes (the stage-2 "weaken" mutation). The verdicts matter
// only in that every ordering must report the same ones.
Network make_weakened(const Network& net) {
  Network weak = net;
  int weakened = 0;
  for (NodeId id = 0; id < weak.num_nodes() && weakened < 4; ++id) {
    const Node& n = weak.node(id);
    if (n.kind != NodeKind::kLogic || n.sop.num_cubes() < 2) continue;
    if ((id % 3) != 0) continue;
    std::vector<Cube> cubes(n.sop.cubes().begin(), n.sop.cubes().end() - 1);
    weak.set_sop(id, Sop(n.sop.num_vars(), std::move(cubes)));
    ++weakened;
  }
  return weak;
}

struct OrderRun {
  uint64_t peak_nodes = 0;
  uint64_t final_nodes = 0;  // live nodes once every query has run
  int fallbacks = 0;         // PO cones lost to BddOverflow (SAT answers)
  std::vector<int> built;    // POs with both f and g built
  std::vector<uint8_t> verdicts;  // implies(g, f), aligned with `built`
  std::vector<double> fractions;  // sat_fraction(f), sat_fraction(g) pairs
  bool operator==(const OrderRun&) const = default;
};

// Builds every PO cone of `net` and `weak` in one manager under `mode`,
// then checks g => f and counts minterms on each PO built on both sides.
OrderRun run_order(const Network& net, const Network& weak, OrderMode mode) {
  std::vector<int> order;
  if (mode != kNatural) order = static_pi_order(net);
  BddManager mgr(net.num_pis(), 1u << 18, order);
  mgr.set_auto_reorder(mode == kSift);
  if (mode == kSift) mgr.set_reorder_threshold(256);

  OrderRun r;
  const int P = net.num_pos();
  std::vector<BddManager::Ref> f_refs(P, BddManager::kInvalidRef);
  std::vector<BddManager::Ref> g_refs(P, BddManager::kInvalidRef);
  mgr.register_external_refs(&f_refs);
  mgr.register_external_refs(&g_refs);
  for (int po = 0; po < P; ++po) {
    if (auto ref = build_po_bdd(mgr, net, po)) {
      f_refs[po] = *ref;
    } else {
      ++r.fallbacks;
    }
  }
  for (int po = 0; po < P; ++po) {
    if (auto ref = build_po_bdd(mgr, weak, po)) {
      g_refs[po] = *ref;
    } else {
      ++r.fallbacks;
    }
  }
  if (mode == kSift) mgr.reorder();  // settle the finished root set
  for (int po = 0; po < P; ++po) {
    if (f_refs[po] == BddManager::kInvalidRef ||
        g_refs[po] == BddManager::kInvalidRef) {
      continue;
    }
    try {
      const bool holds = mgr.implies(g_refs[po], f_refs[po]);
      r.built.push_back(po);
      r.verdicts.push_back(holds ? 1 : 0);
      r.fractions.push_back(mgr.sat_fraction(f_refs[po]));
      r.fractions.push_back(mgr.sat_fraction(g_refs[po]));
    } catch (const BddOverflow&) {
      ++r.fallbacks;
    }
    if (mgr.reorder_pending()) mgr.reorder();
  }
  r.peak_nodes = mgr.stats().peak_nodes;
  r.final_nodes = mgr.live_nodes();
  mgr.unregister_external_refs(&g_refs);
  mgr.unregister_external_refs(&f_refs);
  return r;
}

// `run` restricted to the POs in `common` (a sorted subset of run.built).
OrderRun restrict_to(const OrderRun& run, const std::vector<int>& common) {
  OrderRun out;
  for (size_t i = 0; i < run.built.size(); ++i) {
    if (!std::binary_search(common.begin(), common.end(), run.built[i])) {
      continue;
    }
    out.built.push_back(run.built[i]);
    out.verdicts.push_back(run.verdicts[i]);
    out.fractions.push_back(run.fractions[2 * i]);
    out.fractions.push_back(run.fractions[2 * i + 1]);
  }
  return out;
}

// Variable ordering is what keeps exact BDD error metrics affordable: on
// arithmetic circuits whose natural (a.., b..) PI order is exponentially
// bad and on MCNC-profile stand-ins, static+sift must never grow the peak
// over the natural order, must halve it on at least half the suite and
// must add no SAT fallbacks. Every answer must be independent of the
// ordering and of the task-pool worker count, and sifting is deterministic,
// so the static+sift peak and final node counts are pinned.
TEST(BddOrderingSuite, SiftingShrinksPeaksWithIdenticalAnswers) {
  struct Pin {
    const char* circuit;
    uint64_t sift_peak;
    uint64_t sift_final;
  };
  const Pin pins[] = {
      {"rca8", 554, 432},   {"rca16", 2419, 1444}, {"cmp8", 256, 130},
      {"cmp16", 899, 248},  {"cmb", 285, 58},      {"cordic", 520, 105},
      {"term1", 3823, 1254}, {"alu1", 77, 22},
  };
  constexpr int kCircuits = static_cast<int>(std::size(pins));
  using CircuitRuns = std::array<OrderRun, 3>;
  // One task-pool task per circuit; managers are task-local.
  auto sweep = [&](int workers) {
    const ScopedThreadCount limit(workers);
    std::vector<CircuitRuns> out(kCircuits);
    TaskPool::instance().parallel_for(0, kCircuits, [&](int64_t c) {
      const Network net = make_benchmark(pins[c].circuit);
      const Network weak = make_weakened(net);
      for (int m = 0; m < 3; ++m) {
        out[c][m] = run_order(net, weak, static_cast<OrderMode>(m));
      }
    });
    return out;
  };
  const std::vector<CircuitRuns> one = sweep(1);
  const std::vector<CircuitRuns> four = sweep(4);

  int halved = 0;
  int fallbacks[3] = {0, 0, 0};
  for (int c = 0; c < kCircuits; ++c) {
    const char* name = pins[c].circuit;
    const CircuitRuns& runs = one[c];
    EXPECT_TRUE(runs == four[c]) << name << ": 1 vs 4 workers diverged";
    EXPECT_LE(runs[kSift].peak_nodes, runs[kNatural].peak_nodes) << name;
    if (runs[kNatural].peak_nodes >= 2 * runs[kSift].peak_nodes) ++halved;
    for (int m = 0; m < 3; ++m) fallbacks[m] += runs[m].fallbacks;
    EXPECT_EQ(runs[kSift].peak_nodes, pins[c].sift_peak) << name;
    EXPECT_EQ(runs[kSift].final_nodes, pins[c].sift_final) << name;

    std::vector<int> common = runs[kNatural].built;
    for (int m = 1; m < 3; ++m) {
      std::vector<int> next;
      std::set_intersection(common.begin(), common.end(),
                            runs[m].built.begin(), runs[m].built.end(),
                            std::back_inserter(next));
      common = std::move(next);
    }
    const OrderRun reference = restrict_to(runs[kNatural], common);
    for (int m = 1; m < 3; ++m) {
      EXPECT_TRUE(restrict_to(runs[m], common) == reference)
          << name << ": " << kOrderNames[m] << " answered differently";
    }
  }
  EXPECT_GE(2 * halved, kCircuits) << "natural >= 2x sift peak on " << halved;
  EXPECT_LE(fallbacks[kSift], fallbacks[kNatural]);
  std::printf("natural >= 2x static+sift peak on %d/%d circuits; SAT "
              "fallbacks natural=%d static=%d static+sift=%d\n",
              halved, kCircuits, fallbacks[kNatural], fallbacks[kStatic],
              fallbacks[kSift]);
}

}  // namespace
}  // namespace apx
