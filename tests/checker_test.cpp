#include "core/checker.hpp"

#include <gtest/gtest.h>

#include "sim/fault_engine.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

// Evaluates the checker truth behavior exhaustively over (X, Y).
struct CheckerEval {
  // rails[x][y] = (rail1, rail2) values.
  bool rail1[2][2];
  bool rail2[2][2];
};

CheckerEval eval_checker(ApproxDirection dir) {
  Network net;
  NodeId y = net.add_pi("Y");
  NodeId x = net.add_pi("X");
  TwoRail pair = build_approx_checker(net, y, x, dir);
  net.add_po("r1", pair.rail1);
  net.add_po("r2", pair.rail2);
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(2));
  CheckerEval ev;
  for (int vy = 0; vy < 2; ++vy) {
    for (int vx = 0; vx < 2; ++vx) {
      uint64_t m = vy | (vx << 1);
      ev.rail1[vx][vy] = (sim.value(net.po(0).driver)[0] >> m) & 1;
      ev.rail2[vx][vy] = (sim.value(net.po(1).driver)[0] >> m) & 1;
    }
  }
  return ev;
}

TEST(CheckerTest, ZeroApproxCodeDisjoint) {
  // Valid codewords (X,Y) in {00, 10, 11} -> two-rail valid (rails differ);
  // the invalid codeword 01 -> rails agree (error).
  CheckerEval ev = eval_checker(ApproxDirection::kZeroApprox);
  EXPECT_NE(ev.rail1[0][0], ev.rail2[0][0]);
  EXPECT_NE(ev.rail1[1][0], ev.rail2[1][0]);
  EXPECT_NE(ev.rail1[1][1], ev.rail2[1][1]);
  EXPECT_EQ(ev.rail1[0][1], ev.rail2[0][1]);  // X=0,Y=1 flagged
}

TEST(CheckerTest, OneApproxCodeDisjoint) {
  // Valid codewords {00, 01, 11}; invalid 10 (X=1, Y=0).
  CheckerEval ev = eval_checker(ApproxDirection::kOneApprox);
  EXPECT_NE(ev.rail1[0][0], ev.rail2[0][0]);
  EXPECT_NE(ev.rail1[0][1], ev.rail2[0][1]);
  EXPECT_NE(ev.rail1[1][1], ev.rail2[1][1]);
  EXPECT_EQ(ev.rail1[1][0], ev.rail2[1][0]);
}

TEST(CheckerTest, EqualityCheckerFlagsMismatch) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  TwoRail pair = build_equality_checker(net, a, b);
  net.add_po("r1", pair.rail1);
  net.add_po("r2", pair.rail2);
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(2));
  for (uint64_t m = 0; m < 4; ++m) {
    bool va = m & 1, vb = (m >> 1) & 1;
    bool r1 = (sim.value(net.po(0).driver)[0] >> m) & 1;
    bool r2 = (sim.value(net.po(1).driver)[0] >> m) & 1;
    EXPECT_EQ(r1 != r2, va == vb) << m;  // valid iff equal
  }
}

TEST(CheckerTest, TwoRailCellTruthTable) {
  Network net;
  NodeId a1 = net.add_pi("a1");
  NodeId a2 = net.add_pi("a2");
  NodeId b1 = net.add_pi("b1");
  NodeId b2 = net.add_pi("b2");
  TwoRail out = two_rail_cell(net, {a1, a2}, {b1, b2});
  net.add_po("z1", out.rail1);
  net.add_po("z2", out.rail2);
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(4));
  for (uint64_t m = 0; m < 16; ++m) {
    bool va1 = m & 1, va2 = (m >> 1) & 1, vb1 = (m >> 2) & 1,
         vb2 = (m >> 3) & 1;
    bool z1 = (sim.value(net.po(0).driver)[0] >> m) & 1;
    bool z2 = (sim.value(net.po(1).driver)[0] >> m) & 1;
    bool inputs_valid = (va1 != va2) && (vb1 != vb2);
    // TSC two-rail checker: output valid iff both input pairs valid.
    EXPECT_EQ(z1 != z2, inputs_valid) << m;
    // And exact function: z1 = a1 b1 + a2 b2.
    EXPECT_EQ(z1, (va1 && vb1) || (va2 && vb2)) << m;
  }
}

TEST(CheckerTest, TwoRailTreeValidityComposes) {
  // 5 pairs (odd count exercises the carry-through path).
  Network net;
  std::vector<TwoRail> pairs;
  std::vector<NodeId> pis;
  for (int i = 0; i < 5; ++i) {
    NodeId p1 = net.add_pi("p" + std::to_string(i) + "_1");
    NodeId p2 = net.add_pi("p" + std::to_string(i) + "_2");
    pis.push_back(p1);
    pis.push_back(p2);
    pairs.push_back({p1, p2});
  }
  TwoRail root = build_two_rail_tree(net, pairs);
  net.add_po("z1", root.rail1);
  net.add_po("z2", root.rail2);
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(10));
  for (uint64_t m = 0; m < 1024; m += 7) {
    bool all_valid = true;
    for (int i = 0; i < 5; ++i) {
      bool r1 = (m >> (2 * i)) & 1;
      bool r2 = (m >> (2 * i + 1)) & 1;
      if (r1 == r2) all_valid = false;
    }
    bool z1 = (sim.value(net.po(0).driver)[0 + (m >> 6)] >> (m & 63)) & 1;
    bool z2 = (sim.value(net.po(1).driver)[0 + (m >> 6)] >> (m & 63)) & 1;
    EXPECT_EQ(z1 != z2, all_valid) << m;
  }
}

TEST(CheckerTest, EmptyTreeIsConstantValid) {
  Network net;
  TwoRail root = build_two_rail_tree(net, {});
  net.add_po("z1", root.rail1);
  net.add_po("z2", root.rail2);
  EXPECT_EQ(net.node(root.rail1).kind, NodeKind::kConst0);
  EXPECT_EQ(net.node(root.rail2).kind, NodeKind::kConst1);
}

// TSC self-testing exceptions (paper Sec. 3.2): for a 0-approximation,
// Y stuck-at-0 can never be detected during normal operation (the checker
// input becomes the valid codeword X=1,Y=0), and X stuck-at-1 likewise.
TEST(CheckerTest, ZeroApproxUndetectableFaultDirections) {
  // Use X = Y = the same function (a perfect 0-approximation): build
  // F = a&b protected by X = F.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId y = net.add_and(a, b, "Y");
  NodeId x = net.add_and(a, b, "X");
  TwoRail pair = build_approx_checker(net, y, x, ApproxDirection::kZeroApprox);
  net.add_po("z1", pair.rail1);
  net.add_po("z2", pair.rail2);
  FaultSimEngine engine(net);

  auto rails_agree_somewhere = [&](NodeId node, bool stuck_value) {
    bool agree = false;
    engine.run_batch(PatternSet::exhaustive(2),
                     {FaultSpec::stuck_at(node, stuck_value)},
                     [&](int, const FaultSpec&, const FaultView& v) {
                       uint64_t z1 = v.faulty(net.po(0).driver)[0];
                       uint64_t z2 = v.faulty(net.po(1).driver)[0];
                       uint64_t mask = 0xF;  // 4 exhaustive patterns replicated
                       agree = ((~(z1 ^ z2)) & mask) != 0;
                     });
    return agree;
  };
  // Y stuck-at-0: checker sees valid codewords only -> never flagged.
  EXPECT_FALSE(rails_agree_somewhere(y, false));
  // X stuck-at-1: likewise undetectable.
  EXPECT_FALSE(rails_agree_somewhere(x, true));
  // The protected directions ARE detectable.
  EXPECT_TRUE(rails_agree_somewhere(y, true));   // Y 0->1 errors
  EXPECT_TRUE(rails_agree_somewhere(x, false));  // X stuck-at-0
}

}  // namespace
}  // namespace apx
