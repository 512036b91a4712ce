#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "sat/encode.hpp"

namespace apx {
namespace {

TEST(SatTest, TrivialSat) {
  SatSolver s;
  int a = s.new_var();
  s.add_unit(Lit(a, false));
  EXPECT_EQ(s.solve(), SatResult::kSat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatTest, TrivialUnsat) {
  SatSolver s;
  int a = s.new_var();
  s.add_unit(Lit(a, false));
  s.add_unit(Lit(a, true));
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(SatTest, EmptyClauseUnsat) {
  SatSolver s;
  (void)s.new_var();
  s.add_clause({});
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(SatTest, PropagationChain) {
  SatSolver s;
  const int n = 20;
  std::vector<int> v;
  for (int i = 0; i < n; ++i) v.push_back(s.new_var());
  // v0 and (v_i -> v_{i+1}) chain; force v0 true.
  s.add_unit(Lit(v[0], false));
  for (int i = 0; i + 1 < n; ++i) {
    s.add_binary(Lit(v[i], true), Lit(v[i + 1], false));
  }
  EXPECT_EQ(s.solve(), SatResult::kSat);
  for (int i = 0; i < n; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(SatTest, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): 3 pigeons in 2 holes, classic small UNSAT instance.
  SatSolver s;
  int p[3][2];
  for (auto& row : p) {
    for (int& x : row) x = s.new_var();
  }
  for (int i = 0; i < 3; ++i) {
    s.add_binary(Lit(p[i][0], false), Lit(p[i][1], false));
  }
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.add_binary(Lit(p[i][h], true), Lit(p[j][h], true));
      }
    }
  }
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(SatTest, AssumptionsDoNotPoisonSolver) {
  SatSolver s;
  int a = s.new_var();
  int b = s.new_var();
  s.add_binary(Lit(a, false), Lit(b, false));  // a | b
  // UNSAT under assumptions ~a, ~b.
  EXPECT_EQ(s.solve({Lit(a, true), Lit(b, true)}), SatResult::kUnsat);
  // Still SAT without assumptions.
  EXPECT_EQ(s.solve(), SatResult::kSat);
  // SAT under one assumption.
  EXPECT_EQ(s.solve({Lit(a, true)}), SatResult::kSat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatTest, XorChainForcesParity) {
  // x0 ^ x1 ^ ... ^ x5 = 1 encoded via intermediates; check model parity.
  SatSolver s;
  const int n = 6;
  std::vector<int> x;
  for (int i = 0; i < n; ++i) x.push_back(s.new_var());
  int acc = x[0];
  for (int i = 1; i < n; ++i) {
    int t = s.new_var();
    Lit a(acc, false), b(x[i], false), o(t, false);
    // t = a ^ b.
    s.add_ternary(~o, a, b);
    s.add_ternary(~o, ~a, ~b);
    s.add_ternary(o, ~a, b);
    s.add_ternary(o, a, ~b);
    acc = t;
  }
  s.add_unit(Lit(acc, false));
  ASSERT_EQ(s.solve(), SatResult::kSat);
  int parity = 0;
  for (int i = 0; i < n; ++i) parity ^= s.model_value(x[i]) ? 1 : 0;
  EXPECT_EQ(parity, 1);
}

// Random 3-SAT instances cross-checked against brute force.
class SatRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomProperty, AgreesWithBruteForce) {
  std::mt19937 rng(GetParam());
  for (int instance = 0; instance < 15; ++instance) {
    const int n = 8;
    const int m = 20 + static_cast<int>(rng() % 25);
    std::vector<std::vector<Lit>> formula;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(Lit(static_cast<int>(rng() % n), rng() & 1));
      }
      formula.push_back(clause);
    }
    // Brute force.
    bool expect_sat = false;
    for (uint64_t a = 0; a < (1u << n) && !expect_sat; ++a) {
      bool all = true;
      for (const auto& clause : formula) {
        bool any = false;
        for (Lit l : clause) {
          bool v = (a >> l.var()) & 1;
          if (v != l.negated()) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      expect_sat = all;
    }
    SatSolver s;
    for (int i = 0; i < n; ++i) (void)s.new_var();
    for (auto& clause : formula) s.add_clause(clause);
    SatResult r = s.solve();
    EXPECT_EQ(r == SatResult::kSat, expect_sat) << "instance " << instance;
    if (r == SatResult::kSat) {
      // Verify the model.
      for (const auto& clause : formula) {
        bool any = false;
        for (Lit l : clause) {
          if (s.model_value(l.var()) != l.negated()) {
            any = true;
            break;
          }
        }
        EXPECT_TRUE(any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707));

TEST(SatTest, ConflictBudgetReturnsUnknown) {
  // PHP(8,7) is hard enough to exceed a 1-conflict budget.
  SatSolver s;
  const int pigeons = 8, holes = 7;
  std::vector<std::vector<int>> p(pigeons, std::vector<int>(holes));
  for (auto& row : p) {
    for (int& x : row) x = s.new_var();
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Lit(p[i][h], false));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        s.add_binary(Lit(p[i][h], true), Lit(p[j][h], true));
      }
    }
  }
  EXPECT_EQ(s.solve({}, 1), SatResult::kUnknown);
  EXPECT_EQ(s.solve({}, -1), SatResult::kUnsat);
}

// Search identity. The sequences below are (result, conflicts, decisions)
// after each solve() of a fixed instance, recorded from the solver before
// its clauses moved into a flat arena. Any change to watch order, decision
// order, learnt-clause deletion or reason bookkeeping moves at least one
// count, so a storage-only change must reproduce them exactly.
struct SearchStep {
  int result;  // static_cast<int>(SatResult): 0 sat, 1 unsat, 2 unknown
  int64_t conflicts;
  int64_t decisions;
  bool operator==(const SearchStep&) const = default;
};

SearchStep step_of(const SatSolver& s, SatResult r) {
  return {static_cast<int>(r), s.num_conflicts(), s.num_decisions()};
}

std::string describe(const std::vector<SearchStep>& seq) {
  std::string out;
  for (const SearchStep& st : seq) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "{%d, %lld, %lld}, ", st.result,
                  static_cast<long long>(st.conflicts),
                  static_cast<long long>(st.decisions));
    out += buf;
  }
  return out;
}

void add_random_3sat(SatSolver& s, int n, int m, uint32_t seed) {
  std::mt19937 rng(seed);
  for (int i = 0; i < n; ++i) (void)s.new_var();
  for (int c = 0; c < m; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit(static_cast<int>(rng() % n), (rng() & 1) != 0));
    }
    s.add_clause(clause);
  }
}

TEST(SatSearchGolden, RandomThreeSatWithAssumptionsAndBudget) {
  const std::vector<std::vector<SearchStep>> golden = {
      {{1, 133, 152}, {1, 133, 152}, {1, 133, 152}},
      {{0, 132, 156}, {0, 132, 163}, {0, 132, 170}},
      {{0, 138, 180}, {1, 193, 243}, {1, 205, 257}},
      {{1, 267, 331}, {1, 267, 331}, {1, 267, 331}},
  };
  for (uint32_t seed = 1; seed <= golden.size(); ++seed) {
    SatSolver s;
    add_random_3sat(s, 80, 341, seed);
    std::vector<SearchStep> seq;
    seq.push_back(step_of(s, s.solve()));
    seq.push_back(step_of(
        s, s.solve({Lit(0, false), Lit(1, true), Lit(2, false)})));
    seq.push_back(step_of(s, s.solve({Lit(3, true)}, 50)));
    EXPECT_EQ(seq, golden[seed - 1]) << "seed " << seed << ": "
                                     << describe(seq);
  }
}

// Implication miter of a circuit against itself with the two operand words
// swapped (a+b = b+a; a>b vs b>a), one incremental solver for every query,
// conflict-budgeted so some queries end kUnknown.
std::vector<SearchStep> swapped_operand_miter(const std::string& name,
                                              int64_t budget) {
  const Network net = make_benchmark(name);
  SatSolver s;
  std::vector<int> pis;
  for (int i = 0; i < net.num_pis(); ++i) pis.push_back(s.new_var());
  const int half = net.num_pis() / 2;
  std::vector<int> swapped = pis;
  for (int i = 0; i < half; ++i) std::swap(swapped[i], swapped[half + i]);
  const std::vector<int> va = encode_network(s, net, pis);
  const std::vector<int> vb = encode_network(s, net, swapped);
  std::vector<SearchStep> seq;
  for (int po = 0; po < net.num_pos(); ++po) {
    const NodeId d = net.po(po).driver;
    const Lit f(va[d], false), g(vb[d], false);
    seq.push_back(step_of(s, s.solve({f, ~g}, budget)));
    seq.push_back(step_of(s, s.solve({~f, g}, budget)));
  }
  return seq;
}

TEST(SatSearchGolden, BudgetedSwappedOperandMiters) {
  const std::vector<SearchStep> rca16 = {
      {1, 4, 64}, {1, 9, 69}, {1, 16, 171}, {1, 21, 175}, {1, 33, 236},
      {1, 38, 240}, {2, 51, 295}, {1, 60, 306}, {2, 73, 351}, {1, 84, 362},
      {2, 97, 404}, {2, 110, 418}, {2, 123, 457}, {1, 135, 472}, {2, 148, 531},
      {1, 155, 544}, {2, 168, 605}, {1, 176, 613}, {1, 188, 654},
      {1, 193, 658}, {2, 206, 698}, {1, 211, 702}, {2, 224, 738},
      {1, 234, 750}, {2, 247, 798}, {1, 259, 814}, {2, 272, 865},
      {1, 280, 875}, {2, 293, 921}, {1, 302, 930}, {1, 311, 971},
      {1, 316, 979}, {1, 319, 982}, {1, 321, 983},
  };
  const std::vector<SearchStep> cmp16 = {
      {1, 41, 469}, {1, 73, 754}, {0, 73, 787}, {0, 73, 817},
  };
  std::vector<SearchStep> seq = swapped_operand_miter("rca16", 12);
  EXPECT_EQ(seq, rca16) << describe(seq);
  seq = swapped_operand_miter("cmp16", 300);
  EXPECT_EQ(seq, cmp16) << describe(seq);
}

// Instances long enough to accumulate more than 2000 long learnt clauses,
// so reduce_learnts() deletes clauses, compacts the store and remaps the
// root-level reasons, across a budgeted solve and its resumption.
TEST(SatSearchGolden, LearntReductionPreservesSearch) {
  struct Case {
    int n;
    uint32_t seed;
    std::vector<SearchStep> golden;
  };
  const std::vector<Case> cases = {
      {170, 4, {{2, 2501, 3185}, {1, 7066, 8721}}},
      {190, 3, {{2, 2501, 3131}, {0, 6693, 8137}}},
  };
  for (const Case& c : cases) {
    SatSolver s;
    add_random_3sat(s, c.n, static_cast<int>(c.n * 4.26), c.seed);
    std::vector<SearchStep> seq;
    seq.push_back(step_of(s, s.solve({}, 2500)));
    seq.push_back(step_of(s, s.solve()));
    EXPECT_EQ(seq, c.golden) << "n " << c.n << ": " << describe(seq);
    EXPECT_GT(s.num_reductions(), 0) << "n " << c.n;
  }
}

}  // namespace
}  // namespace apx
