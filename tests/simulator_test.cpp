#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bdd/network_bdd.hpp"
#include "sim/fault_engine.hpp"

namespace apx {
namespace {

// Word 0 of every node's faulty row under each fault, from one run_batch
// over the 8 exhaustive patterns of a 3-input network. Fault injection runs
// through FaultSimEngine; Simulator is the fault-free reference here.
std::vector<std::vector<uint64_t>> faulty_words(
    FaultSimEngine& engine, const std::vector<FaultSpec>& faults) {
  const Network& net = engine.network();
  std::vector<std::vector<uint64_t>> out(faults.size());
  engine.run_batch(PatternSet::exhaustive(3), faults,
                   [&](int i, const FaultSpec&, const FaultView& v) {
                     for (NodeId id = 0; id < net.num_nodes(); ++id) {
                       out[i].push_back(v.faulty(id)[0]);
                     }
                   });
  return out;
}

Network adder_bit() {
  // Full adder: sum = a^b^cin, cout = ab + cin(a^b).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId cin = net.add_pi("cin");
  NodeId axb = net.add_xor(a, b, "axb");
  NodeId sum = net.add_xor(axb, cin, "sum");
  NodeId ab = net.add_and(a, b, "ab");
  NodeId c2 = net.add_and(cin, axb, "c2");
  NodeId cout = net.add_or(ab, c2, "cout");
  net.add_po("sum", sum);
  net.add_po("cout", cout);
  return net;
}

TEST(SimulatorTest, ExhaustiveFullAdder) {
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  NodeId sum = net.po(0).driver;
  NodeId cout = net.po(1).driver;
  for (uint64_t m = 0; m < 8; ++m) {
    int a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
    int expect_sum = a ^ b ^ c;
    int expect_cout = (a + b + c) >= 2;
    EXPECT_EQ((sim.value(sum)[0] >> m) & 1, static_cast<uint64_t>(expect_sum));
    EXPECT_EQ((sim.value(cout)[0] >> m) & 1,
              static_cast<uint64_t>(expect_cout));
  }
}

TEST(SimulatorTest, SignalProbabilityExhaustive) {
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  // sum is 1 on 4/8 minterms; cout on 4/8.
  EXPECT_NEAR(sim.signal_probability(net.po(0).driver), 0.5, 1e-12);
  EXPECT_NEAR(sim.signal_probability(net.po(1).driver), 0.5, 1e-12);
  EXPECT_NEAR(sim.switching_activity(net.po(0).driver), 0.5, 1e-12);
}

TEST(SimulatorTest, RandomSimulationMatchesBdd) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Network net;
    std::vector<NodeId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(net.add_pi("p" + std::to_string(i)));
    for (int g = 0; g < 25; ++g) {
      NodeId a = pool[rng() % pool.size()];
      NodeId b = pool[rng() % pool.size()];
      switch (rng() % 3) {
        case 0:
          pool.push_back(net.add_and(a, b));
          break;
        case 1:
          pool.push_back(net.add_or(a, b));
          break;
        case 2:
          pool.push_back(net.add_xor(a, b));
          break;
      }
    }
    net.add_po("f", pool.back());

    Simulator sim(net);
    sim.run(PatternSet::exhaustive(6));
    NetworkBdds bdds(net);
    EXPECT_NEAR(sim.signal_probability(net.po(0).driver),
                bdds.manager().sat_fraction(bdds.po_ref(0)), 1e-12);
  }
}

TEST(SimulatorTest, StuckAtFaultForcesValue) {
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  FaultSimEngine engine(net);
  NodeId axb = *net.find_node("axb");
  const auto faulty = faulty_words(engine, {FaultSpec::stuck_at(axb, true)});
  EXPECT_EQ(faulty[0][axb], ~0ULL);
  // Downstream cone (sum) must differ where a^b == 0 -> sum flips.
  NodeId sum = net.po(0).driver;
  uint64_t golden = sim.value(sum)[0];
  for (uint64_t m = 0; m < 8; ++m) {
    int a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
    bool expect_flip = (a ^ b) == 0;
    EXPECT_EQ(((golden ^ faulty[0][sum]) >> m) & 1,
              static_cast<uint64_t>(expect_flip))
        << m << " c=" << c;
  }
}

TEST(SimulatorTest, FaultOutsideConeLeavesGolden) {
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  FaultSimEngine engine(net);
  NodeId ab = *net.find_node("ab");
  const auto faulty = faulty_words(engine, {FaultSpec::stuck_at(ab, true)});
  // sum does not depend on ab.
  NodeId sum = net.po(0).driver;
  EXPECT_EQ(faulty[0][sum], sim.value(sum)[0]);
  // cout does.
  NodeId cout = net.po(1).driver;
  EXPECT_NE(faulty[0][cout], sim.value(cout)[0]);
}

TEST(SimulatorTest, SuccessiveInjectionsAreIndependent) {
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  FaultSimEngine engine(net);
  NodeId sum = net.po(0).driver;
  const FaultSpec axb = FaultSpec::stuck_at(*net.find_node("axb"), true);
  const FaultSpec ab = FaultSpec::stuck_at(*net.find_node("ab"), true);
  // One worker arena serves all three faults in order.
  const auto faulty = faulty_words(engine, {axb, ab, axb});
  // After the second injection, sum must read golden again (ab not in its
  // cone), not the stale value from the first fault.
  EXPECT_EQ(faulty[1][sum], sim.value(sum)[0]);
  EXPECT_EQ(faulty[2][sum], faulty[0][sum]);
}

TEST(SimulatorTest, SecondRunInvalidatesPriorFaultValues) {
  // A second batch with same-shaped patterns reuses the worker arena in
  // place; the first batch's faulty rows must not stay readable.
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  FaultSimEngine engine(net);
  NodeId axb = *net.find_node("axb");
  NodeId ab = *net.find_node("ab");
  const auto first = faulty_words(engine, {FaultSpec::stuck_at(axb, true)});
  ASSERT_NE(first[0][axb], sim.value(axb)[0]);
  const auto second = faulty_words(engine, {FaultSpec::stuck_at(ab, true)});
  EXPECT_EQ(second[0][axb], sim.value(axb)[0]);
  NodeId sum = net.po(0).driver;
  EXPECT_EQ(second[0][sum], sim.value(sum)[0]);
}

TEST(SimulatorTest, RandomPatternsAreReproducible) {
  PatternSet a = PatternSet::random(4, 3, 42);
  PatternSet b = PatternSet::random(4, 3, 42);
  PatternSet c = PatternSet::random(4, 3, 43);
  EXPECT_EQ(a.word(2, 1), b.word(2, 1));
  EXPECT_NE(a.word(2, 1), c.word(2, 1));
}

TEST(SimulatorTest, ExhaustiveSmallReplicates) {
  // 2 PIs -> 4 patterns replicated to fill 64 bits; probabilities exact.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  net.add_po("o", net.add_and(a, b));
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(2));
  EXPECT_NEAR(sim.signal_probability(net.po(0).driver), 0.25, 1e-12);
}

}  // namespace
}  // namespace apx
