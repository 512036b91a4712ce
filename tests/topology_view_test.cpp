// Tests for the cache-resident topology snapshot (network/topology_view.hpp):
// version-keyed invalidation (structural mutations rebuild, function-only
// mutations don't), differential equivalence of the CSR/cone queries against
// the legacy Network traversals, and the allocation-free steady state of
// cone_of with caller-owned scratch.
#include "network/topology_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "network/network.hpp"

// Global allocation counter: the steady-state test asserts that warmed-up
// cone/fanout/topo queries through the view do not allocate.
namespace {
std::atomic<int64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// The nothrow forms must come from malloc too: libstdc++ allocates
// std::stable_sort's temporary buffer with them and frees it through the
// replaced delete below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace apx {
namespace {

// n4 = a & b;  n5 = c | d;  f = n4 | n5  (two overlapping PO cones below).
Network small_net() {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId d = net.add_pi("d");
  NodeId n4 = net.add_and(a, b, "n4");
  NodeId n5 = net.add_or(c, d, "n5");
  NodeId f = net.add_or(n4, n5, "f");
  net.add_po("f", f);
  net.add_po("g", n5);
  return net;
}

// A deeper pseudo-random DAG to exercise the differential checks beyond
// hand-sized examples.
Network layered_net(int pis, int layers, int per_layer) {
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) {
    pool.push_back(net.add_pi("x" + std::to_string(i)));
  }
  uint64_t s = 0x9E3779B97F4A7C15ULL;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int l = 0; l < layers; ++l) {
    std::vector<NodeId> layer;
    for (int i = 0; i < per_layer; ++i) {
      NodeId a = pool[next() % pool.size()];
      NodeId b = pool[next() % pool.size()];
      layer.push_back((next() & 1) ? net.add_and(a, b) : net.add_xor(a, b));
    }
    for (NodeId id : layer) pool.push_back(id);
  }
  for (int o = 0; o < 4; ++o) {
    net.add_po("z" + std::to_string(o), pool[pool.size() - 1 - o]);
  }
  return net;
}

TEST(TopologyViewTest, CacheHitReturnsSameSnapshot) {
  Network net = small_net();
  auto v1 = net.topology();
  auto v2 = net.topology();
  EXPECT_EQ(v1.get(), v2.get()) << "unchanged structure must hit the cache";
  EXPECT_EQ(v1->structure_version(), net.structure_version());
}

TEST(TopologyViewTest, StructuralMutationRebuilds) {
  Network net = small_net();
  auto before = net.topology();

  // add_node is structural: new snapshot, new version.
  NodeId g = net.add_and(0, 1, "extra");
  net.add_po("h", g);
  auto after = net.topology();
  EXPECT_NE(before.get(), after.get());
  EXPECT_GT(after->structure_version(), before->structure_version());
  EXPECT_EQ(after->num_nodes(), net.num_nodes());

  // set_function (fanin rewire) is structural too.
  NodeId f = *net.find_node("f");
  Sop anded(2);
  Cube c = Cube::full(2);
  c.set(0, LitCode::kPos);
  c.set(1, LitCode::kPos);
  anded.add_cube(c);
  net.set_function(f, {*net.find_node("n4"), g}, std::move(anded));
  auto rewired = net.topology();
  EXPECT_NE(after.get(), rewired.get());

  // cleanup renumbers nodes: structural.
  net.cleanup();
  auto cleaned = net.topology();
  EXPECT_NE(rewired.get(), cleaned.get());
  EXPECT_EQ(cleaned->num_nodes(), net.num_nodes());

  // The old snapshots stay valid for their generation's shape.
  EXPECT_EQ(before->num_nodes(), 7);
}

TEST(TopologyViewTest, SetSopDoesNotInvalidate) {
  Network net = small_net();
  auto before = net.topology();
  NodeId n4 = *net.find_node("n4");
  Sop ored(2);
  for (int v = 0; v < 2; ++v) {
    Cube c = Cube::full(2);
    c.set(v, LitCode::kPos);
    ored.add_cube(c);
  }
  net.set_sop(n4, std::move(ored));  // function-only: same DAG shape
  auto after = net.topology();
  EXPECT_EQ(before.get(), after.get())
      << "set_sop must not invalidate the structure snapshot";
}

TEST(TopologyViewTest, MatchesLegacyTraversals) {
  for (Network net : {small_net(), layered_net(8, 6, 5)}) {
    auto view = net.topology();

    EXPECT_EQ(view->topo(), net.topo_order());
    EXPECT_EQ(view->levels(), net.levels());
    for (int i = 0; i < view->num_nodes(); ++i) {
      EXPECT_EQ(view->topo_position(view->topo()[i]), i);
    }

    std::vector<std::vector<NodeId>> legacy = net.fanouts();
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      TopologyView::Range r = view->fanouts(id);
      EXPECT_EQ(std::vector<NodeId>(r.begin(), r.end()), legacy[id]);
      EXPECT_EQ(view->fanout_count(id), static_cast<int>(legacy[id].size()));
      TopologyView::Range fi = view->fanins(id);
      EXPECT_EQ(std::vector<NodeId>(fi.begin(), fi.end()),
                net.node(id).fanins);
    }
  }
}

TEST(TopologyViewTest, ConeOfMatchesLegacy) {
  Network net = layered_net(8, 6, 5);
  auto view = net.topology();
  ConeScratch scratch;
  std::vector<NodeId> cone;

  // Empty roots: empty cone.
  view->cone_of(std::vector<NodeId>{}, scratch, cone);
  EXPECT_TRUE(cone.empty());
  EXPECT_TRUE(net.cone_of({}).empty());

  // PI-only roots: the cone is exactly the PIs themselves.
  std::vector<NodeId> pi_roots(net.pis().begin(), net.pis().begin() + 3);
  view->cone_of(pi_roots, scratch, cone);
  EXPECT_EQ(cone, net.cone_of(pi_roots));
  EXPECT_EQ(cone.size(), pi_roots.size());

  // Every single-root cone.
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    view->cone_of(&id, 1, scratch, cone);
    EXPECT_EQ(cone, net.cone_of({id}));
  }

  // Multi-root cones with overlap (PO drivers share structure by
  // construction): shared nodes must appear exactly once, in topo order.
  std::vector<NodeId> drivers;
  for (const PrimaryOutput& po : net.pos()) drivers.push_back(po.driver);
  view->cone_of(drivers, scratch, cone);
  EXPECT_EQ(cone, net.cone_of(drivers));
  std::vector<NodeId> uniq = cone;
  std::sort(uniq.begin(), uniq.end());
  EXPECT_EQ(std::unique(uniq.begin(), uniq.end()), uniq.end());
}

TEST(TopologyViewTest, ConeOfSteadyStateDoesNotAllocate) {
  Network net = layered_net(8, 6, 5);
  auto view = net.topology();
  ConeScratch scratch;
  std::vector<NodeId> cone;
  std::vector<NodeId> drivers;
  for (const PrimaryOutput& po : net.pos()) drivers.push_back(po.driver);

  // Warm-up: grows scratch and the output vector to steady-state capacity.
  view->cone_of(drivers, scratch, cone);
  NodeId root = drivers[0];
  view->cone_of(&root, 1, scratch, cone);

  const int64_t before = g_allocs.load();
  for (int rep = 0; rep < 100; ++rep) {
    view->cone_of(drivers, scratch, cone);
    view->cone_of(&root, 1, scratch, cone);
    int edges = 0;
    for (NodeId id : view->topo()) edges += view->fanout_count(id);
    for (NodeId id : cone) {
      for (NodeId out : view->fanouts(id)) edges += out;
    }
    ASSERT_GT(edges, 0);
  }
  EXPECT_EQ(g_allocs.load(), before)
      << "warmed-up cone/fanout/topo queries must not allocate";
}

}  // namespace
}  // namespace apx
