// A self-contained CDCL SAT solver (watched literals, first-UIP learning,
// VSIDS-style activities, phase saving, Luby restarts) used as the second
// implication oracle for approximation-correctness checks (paper Sec. 2.2:
// "this can be done very efficiently using SAT algorithms").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace apx {

/// A literal: variable index with sign. Encoded as 2*var + (negated ? 1 : 0).
struct Lit {
  int32_t code = -2;

  Lit() = default;
  Lit(int var, bool negated) : code(2 * var + (negated ? 1 : 0)) {}

  int var() const { return code >> 1; }
  bool negated() const { return code & 1; }
  Lit operator~() const {
    Lit l;
    l.code = code ^ 1;
    return l;
  }
  bool operator==(const Lit& o) const { return code == o.code; }
  bool operator!=(const Lit& o) const { return code != o.code; }
};

enum class SatResult { kSat, kUnsat, kUnknown };

class SatSolver {
 public:
  SatSolver() = default;

  /// Creates a fresh variable; returns its index.
  int new_var();
  int num_vars() const { return static_cast<int>(assign_.size()); }

  /// Adds a clause (empty clause makes the instance trivially UNSAT).
  /// Returns false if the solver is already in an UNSAT state.
  bool add_clause(std::vector<Lit> lits);
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Solves under assumptions. `conflict_budget` < 0 means unbounded.
  SatResult solve(const std::vector<Lit>& assumptions = {},
                  int64_t conflict_budget = -1);

  /// Model value of a variable after kSat (unassigned vars default false).
  bool model_value(int var) const;

  int64_t num_conflicts() const { return conflicts_total_; }
  int64_t num_decisions() const { return decisions_total_; }
  /// Learnt-clause database reductions run (each compacts the store).
  int64_t num_reductions() const { return reductions_total_; }

 private:
  enum class Value : int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  // Clause store: one flat arena of Lit-sized words. The clause at offset
  // `cr` (its ClauseRef) occupies
  //   arena_[cr].code      header: literal count << 1 | learnt bit
  //   arena_[cr + 1].code  learnt clauses: slot in learnt_activity_
  //   arena_[cr + 2 ...]   the literals, watched pair first
  // Learnt slots follow arena order (the k-th learnt clause owns slot k),
  // which reduce_learnts() relies on when it compacts both in place.
  using ClauseRef = int32_t;
  static constexpr ClauseRef kNoReason = -1;
  static constexpr int kHeaderWords = 2;

  int clause_size(ClauseRef cr) const { return arena_[cr].code >> 1; }
  bool clause_learnt(ClauseRef cr) const { return arena_[cr].code & 1; }
  Lit* clause_lits(ClauseRef cr) { return &arena_[cr + kHeaderWords]; }
  ClauseRef alloc_clause(const Lit* lits, size_t n, bool learnt);

  Value value(Lit l) const {
    Value v = assign_[l.var()];
    if (v == Value::kUndef) return Value::kUndef;
    bool b = (v == Value::kTrue);
    return (b != l.negated()) ? Value::kTrue : Value::kFalse;
  }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  int analyze(ClauseRef conflict);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(int var);
  void decay_var_activity();
  void attach_clause(ClauseRef cr);
  void reduce_learnts();
  static int64_t luby(int64_t i);

  std::vector<Lit> arena_;
  std::vector<double> learnt_activity_;  // indexed by learnt slot
  std::vector<std::vector<ClauseRef>> watches_;  // indexed by lit code
  std::vector<Value> assign_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t prop_head_ = 0;

  // Max-heap over variable activities (MiniSat-style order heap).
  void heap_insert(int var);
  void heap_update(int var);
  int heap_pop_undef();
  void heap_sift_up(int i);
  void heap_sift_down(int i);

  std::vector<double> activity_;
  std::vector<bool> polarity_;  // saved phases
  double var_inc_ = 1.0;
  std::vector<int> heap_;      // variable indices, max-heap by activity
  std::vector<int> heap_pos_;  // var -> index in heap_, -1 if absent

  bool unsat_ = false;
  int64_t conflicts_total_ = 0;
  int64_t decisions_total_ = 0;
  int64_t reductions_total_ = 0;
  // Per-conflict scratch, reused across conflicts.
  std::vector<bool> seen_;
  std::vector<Lit> learnt_;
  std::vector<int> to_clear_;
};

}  // namespace apx
