#include <gtest/gtest.h>

#include <random>

#include "mapping/optimize.hpp"
#include "sat/encode.hpp"

namespace apx {
namespace {

TEST(ResubstitutionTest, ReusesExistingDivisor) {
  // d = b + c exists; f = ab + ac + e should rewrite to f = a*d + e.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId e = net.add_pi("e");
  NodeId d = net.add_node({b, c}, *Sop::parse(2, "1-\n-1"), "d");
  NodeId f = net.add_node({a, b, c, e},
                          *Sop::parse(4, "11--\n1-1-\n---1"), "f");
  net.add_po("d", d);
  net.add_po("f", f);
  Network before = net;
  int before_lits = net.total_literals();

  int rewrites = resubstitute(net);
  EXPECT_EQ(rewrites, 1);
  EXPECT_LT(net.total_literals(), before_lits);
  // f now has d as a fanin.
  const Node& fn = net.node(f);
  EXPECT_NE(std::find(fn.fanins.begin(), fn.fanins.end(), d),
            fn.fanins.end());
  for (int po = 0; po < net.num_pos(); ++po) {
    EXPECT_EQ(check_po_equivalence(before, po, net, po), CheckResult::kHolds);
  }
}

TEST(ResubstitutionTest, NoDivisorNoChange) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId f = net.add_xor(a, b, "f");
  net.add_po("f", f);
  EXPECT_EQ(resubstitute(net), 0);
}

TEST(ResubstitutionTest, NeverCreatesCycles) {
  std::mt19937 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    Network net;
    std::vector<NodeId> pool;
    for (int i = 0; i < 5; ++i) pool.push_back(net.add_pi("p" + std::to_string(i)));
    for (int g = 0; g < 20; ++g) {
      int k = 2 + static_cast<int>(rng() % 3);
      std::vector<NodeId> fanins;
      while (static_cast<int>(fanins.size()) < k) {
        NodeId cand = pool[rng() % pool.size()];
        if (std::find(fanins.begin(), fanins.end(), cand) == fanins.end()) {
          fanins.push_back(cand);
        }
      }
      Sop sop(k);
      for (int ci = 0; ci < 2 + static_cast<int>(rng() % 2); ++ci) {
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
    net.add_po("f", pool.back());
    net.add_po("g", pool[pool.size() / 2]);
    Network before = net;
    resubstitute(net);
    net.check();  // throws on cycles
    for (int po = 0; po < net.num_pos(); ++po) {
      EXPECT_EQ(check_po_equivalence(before, po, net, po),
                CheckResult::kHolds);
    }
  }
}

TEST(ResubstitutionTest, OptimizeOptionRunsIt) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId d = net.add_node({b, c}, *Sop::parse(2, "1-\n-1"), "d");
  NodeId f = net.add_node({a, b, c},
                          *Sop::parse(3, "11-\n1-1"), "f");
  net.add_po("d", d);
  net.add_po("f", f);
  Network out = optimize(net);
  resubstitute(out);
  out.cleanup();
  EXPECT_EQ(check_po_equivalence(net, 1, out, 1), CheckResult::kHolds);
  EXPECT_LE(out.total_literals(), net.total_literals());
}

}  // namespace
}  // namespace apx
