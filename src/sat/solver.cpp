#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/trace.hpp"

namespace apx {

int SatSolver::new_var() {
  int v = num_vars();
  assign_.push_back(Value::kUndef);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  polarity_.push_back(false);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

void SatSolver::heap_sift_up(int i) {
  int var = heap_[i];
  while (i > 0) {
    int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[var]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = var;
  heap_pos_[var] = i;
}

void SatSolver::heap_sift_down(int i) {
  int var = heap_[i];
  int size = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[var]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = var;
  heap_pos_[var] = i;
}

void SatSolver::heap_insert(int var) {
  if (heap_pos_[var] >= 0) return;
  heap_.push_back(var);
  heap_pos_[var] = static_cast<int>(heap_.size()) - 1;
  heap_sift_up(heap_pos_[var]);
}

void SatSolver::heap_update(int var) {
  if (heap_pos_[var] >= 0) heap_sift_up(heap_pos_[var]);
}

int SatSolver::heap_pop_undef() {
  while (!heap_.empty()) {
    int var = heap_[0];
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    heap_pos_[var] = -1;
    if (!heap_.empty()) heap_sift_down(0);
    if (assign_[var] == Value::kUndef) return var;
  }
  return -1;
}

bool SatSolver::add_clause(std::vector<Lit> lits) {
  if (unsat_) return false;
  // solve() leaves its final trail in place (so model_value works); clause
  // addition reasons about root-level truth, so undo any leftover
  // decision levels first. This matters for incremental use, where
  // clauses arrive between solve() calls.
  if (!trail_lim_.empty()) backtrack(0);
  // Remove duplicates; detect tautologies; drop false literals at level 0.
  // Cleans in place: the write cursor never passes the read cursor.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  size_t n = 0;
  Lit prev;  // code -2 matches no literal and no variable
  for (Lit l : lits) {
    if (l == prev) continue;
    if (l.var() == prev.var()) return true;  // taut
    prev = l;
    if (value(l) == Value::kTrue && level_[l.var()] == 0)
      return true;  // satisfied at root
    if (value(l) == Value::kFalse && level_[l.var()] == 0)
      continue;  // false at root: drop
    lits[n++] = l;
  }
  if (n == 0) {
    unsat_ = true;
    return false;
  }
  if (n == 1) {
    if (value(lits[0]) == Value::kUndef) {
      enqueue(lits[0], kNoReason);
      if (propagate() != kNoReason) {
        unsat_ = true;
        return false;
      }
    } else if (value(lits[0]) == Value::kFalse) {
      unsat_ = true;
      return false;
    }
    return true;
  }
  attach_clause(alloc_clause(lits.data(), n, /*learnt=*/false));
  return true;
}

SatSolver::ClauseRef SatSolver::alloc_clause(const Lit* lits, size_t n,
                                             bool learnt) {
  const size_t cr = arena_.size();
  // Offsets are int32 and the header holds the size shifted left by one.
  if (cr + kHeaderWords + n > (size_t{1} << 30)) {
    throw std::length_error("SatSolver: clause arena exceeds 2^30 words");
  }
  arena_.resize(cr + kHeaderWords + n);
  arena_[cr].code = static_cast<int32_t>(n << 1) | (learnt ? 1 : 0);
  arena_[cr + 1].code =
      learnt ? static_cast<int32_t>(learnt_activity_.size()) : 0;
  if (learnt) learnt_activity_.push_back(0.0);
  std::copy(lits, lits + n, arena_.begin() + cr + kHeaderWords);
  return static_cast<ClauseRef>(cr);
}

void SatSolver::attach_clause(ClauseRef cr) {
  const Lit* c = clause_lits(cr);
  watches_[c[0].code].push_back(cr);
  watches_[c[1].code].push_back(cr);
}

void SatSolver::enqueue(Lit l, ClauseRef reason) {
  assert(value(l) == Value::kUndef);
  assign_[l.var()] = l.negated() ? Value::kFalse : Value::kTrue;
  level_[l.var()] = static_cast<int>(trail_lim_.size());
  reason_[l.var()] = reason;
  polarity_[l.var()] = !l.negated();
  trail_.push_back(l);
  // propagate() will read this watch list; start loading its header now.
  __builtin_prefetch(&watches_[(~l).code]);
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (prop_head_ < trail_.size()) {
    Lit p = trail_[prop_head_++];
    // Watch-list loads dominate propagation on large circuits: fetch the
    // next literal's watches while this one is processed. (Prefetches
    // change no result, so the search stays the same.)
    if (prop_head_ < trail_.size()) {
      __builtin_prefetch(watches_[(~trail_[prop_head_]).code].data());
    }
    // Clauses watching ~p must be updated.
    std::vector<ClauseRef>& watchers = watches_[(~p).code];
    size_t keep = 0;
    for (size_t i = 0; i < watchers.size(); ++i) {
      ClauseRef cr = watchers[i];
      Lit* c = clause_lits(cr);
      const int size = clause_size(cr);
      // Ensure the false literal is at position 1.
      Lit false_lit = ~p;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      // If first watch is true, clause is satisfied.
      if (value(c[0]) == Value::kTrue) {
        watchers[keep++] = cr;
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (int k = 2; k < size; ++k) {
        if (value(c[k]) != Value::kFalse) {
          std::swap(c[1], c[k]);
          watches_[c[1].code].push_back(cr);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      watchers[keep++] = cr;
      if (value(c[0]) == Value::kFalse) {
        // Conflict: keep remaining watchers and report.
        for (size_t j = i + 1; j < watchers.size(); ++j) {
          watchers[keep++] = watchers[j];
        }
        watchers.resize(keep);
        prop_head_ = trail_.size();
        return cr;
      }
      enqueue(c[0], cr);
    }
    watchers.resize(keep);
  }
  return kNoReason;
}

void SatSolver::bump_var(int var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Rescaling preserves the heap order: no fix-up needed.
  }
  heap_update(var);
}

void SatSolver::decay_var_activity() { var_inc_ /= 0.95; }

// Derives the first-UIP clause of `conflict` into learnt_ (asserting
// literal first, highest remaining level second); returns the backtrack
// level.
int SatSolver::analyze(ClauseRef conflict) {
  std::vector<Lit>& learnt = learnt_;
  learnt.clear();
  learnt.push_back(Lit());  // placeholder for the asserting literal
  int counter = 0;
  Lit p;
  p.code = -2;
  int index = static_cast<int>(trail_.size()) - 1;
  int current_level = static_cast<int>(trail_lim_.size());
  ClauseRef reason = conflict;

  to_clear_.clear();
  do {
    assert(reason != kNoReason);
    if (clause_learnt(reason)) {
      learnt_activity_[arena_[reason + 1].code] += 1.0;
    }
    const Lit* c = clause_lits(reason);
    const int size = clause_size(reason);
    for (int k = 0; k < size; ++k) {
      const Lit q = c[k];
      if (q == p) continue;
      int v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = true;
        to_clear_.push_back(v);
        bump_var(v);
        if (level_[v] >= current_level) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Select next literal to expand from the trail.
    while (!seen_[trail_[index].var()]) --index;
    p = trail_[index];
    reason = reason_[p.var()];
    seen_[p.var()] = false;
    --index;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Compute backtrack level (second highest level in the clause).
  int bt_level = 0;
  if (learnt.size() > 1) {
    size_t max_i = 1;
    for (size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[learnt[1].var()];
  }
  for (int v : to_clear_) seen_[v] = false;
  return bt_level;
}

void SatSolver::backtrack(int target_level) {
  while (static_cast<int>(trail_lim_.size()) > target_level) {
    size_t lim = trail_lim_.back();
    trail_lim_.pop_back();
    while (trail_.size() > lim) {
      Lit l = trail_.back();
      trail_.pop_back();
      assign_[l.var()] = Value::kUndef;
      reason_[l.var()] = kNoReason;
      heap_insert(l.var());
    }
  }
  prop_head_ = trail_.size();
}

Lit SatSolver::pick_branch() {
  int best = heap_pop_undef();
  if (best < 0) {
    Lit l;
    l.code = -2;
    return l;
  }
  return Lit(best, !polarity_[best]);
}

void SatSolver::reduce_learnts() {
  // Drop the lower-activity half of long learnt clauses (ties broken by
  // arena position), compact the arena in place and rebuild the watches.
  const ClauseRef end = static_cast<ClauseRef>(arena_.size());
  std::vector<std::pair<double, ClauseRef>> learnt_scores;
  for (ClauseRef cr = 0; cr < end; cr += kHeaderWords + clause_size(cr)) {
    if (clause_learnt(cr) && clause_size(cr) > 2) {
      learnt_scores.push_back({learnt_activity_[arena_[cr + 1].code], cr});
    }
  }
  if (learnt_scores.size() < 2000) return;
  std::sort(learnt_scores.begin(), learnt_scores.end());
  // A dropped clause's slot word becomes kDropped; the slots of the others
  // are recovered from arena order in the second pass below.
  constexpr int32_t kDropped = -1;
  for (size_t i = 0; i < learnt_scores.size() / 2; ++i) {
    const ClauseRef cr = learnt_scores[i].second;
    // Do not drop reason clauses of current assignments.
    bool is_reason = false;
    const Lit* c = clause_lits(cr);
    for (int k = 0; k < clause_size(cr); ++k) {
      const int v = c[k].var();
      if (reason_[v] == cr && assign_[v] != Value::kUndef) {
        is_reason = true;
        break;
      }
    }
    if (!is_reason) arena_[cr + 1].code = kDropped;
  }
  // Pass 1: every kept clause's slot word becomes its offset after
  // compaction, so reasons remap by one lookup (a dropped clause maps to
  // kDropped == kNoReason, which never happens for a reason).
  ClauseRef to = 0;
  for (ClauseRef cr = 0; cr < end; cr += kHeaderWords + clause_size(cr)) {
    if (arena_[cr + 1].code == kDropped) continue;
    arena_[cr + 1].code = to;
    to += kHeaderWords + clause_size(cr);
  }
  for (int v = 0; v < num_vars(); ++v) {
    if (reason_[v] != kNoReason) reason_[v] = arena_[reason_[v] + 1].code;
  }
  // Pass 2: slide kept clauses down (destinations never pass their
  // sources) and renumber learnt slots in arena order.
  int32_t old_slot = 0, new_slot = 0;
  for (ClauseRef cr = 0; cr < end;) {
    const bool learnt = clause_learnt(cr);
    const ClauseRef next = cr + kHeaderWords + clause_size(cr);
    const ClauseRef dest = arena_[cr + 1].code;
    if (dest != kDropped) {
      int32_t slot = 0;
      if (learnt) {
        learnt_activity_[new_slot] = learnt_activity_[old_slot];
        slot = new_slot++;
      }
      if (dest != cr) {
        std::copy(arena_.begin() + cr, arena_.begin() + next,
                  arena_.begin() + dest);
      }
      arena_[dest + 1].code = slot;
    }
    if (learnt) ++old_slot;
    cr = next;
  }
  arena_.resize(to);
  learnt_activity_.resize(new_slot);
  for (auto& w : watches_) w.clear();
  for (ClauseRef cr = 0; cr < to; cr += kHeaderWords + clause_size(cr)) {
    attach_clause(cr);
  }
  ++reductions_total_;
}

int64_t SatSolver::luby(int64_t i) {
  // Luby sequence (0-based): 1 1 2 1 1 2 4 1 1 2 ...
  int64_t size = 1;
  int64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return 1LL << seq;
}

SatResult SatSolver::solve(const std::vector<Lit>& assumptions,
                           int64_t conflict_budget) {
  // Per-call deltas fold into the trace registry on every return path.
  struct TracePublish {
    const SatSolver* s;
    int64_t conflicts0, decisions0;
    ~TracePublish() {
      if (!trace::enabled()) return;
      trace::counter("sat.solves").add(1);
      trace::counter("sat.conflicts").add(s->conflicts_total_ - conflicts0);
      trace::counter("sat.decisions").add(s->decisions_total_ - decisions0);
    }
  } publish{this, conflicts_total_, decisions_total_};

  if (unsat_) return SatResult::kUnsat;
  backtrack(0);
  if (propagate() != kNoReason) {
    unsat_ = true;
    return SatResult::kUnsat;
  }

  int64_t conflicts_this_call = 0;
  int64_t restart_count = 0;
  int64_t restart_limit = 100 * luby(restart_count);

  while (true) {
    ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++conflicts_total_;
      ++conflicts_this_call;
      if (trail_lim_.empty()) {
        unsat_ = true;
        return SatResult::kUnsat;
      }
      backtrack(analyze(conflict));
      const std::vector<Lit>& learnt = learnt_;
      if (learnt.size() == 1) {
        if (value(learnt[0]) == Value::kFalse) {
          unsat_ = trail_lim_.empty();
          if (unsat_) return SatResult::kUnsat;
          // Conflicts with an assumption.
          return SatResult::kUnsat;
        }
        if (value(learnt[0]) == Value::kUndef) enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cr =
            alloc_clause(learnt.data(), learnt.size(), /*learnt=*/true);
        attach_clause(cr);
        if (value(clause_lits(cr)[0]) == Value::kUndef) {
          enqueue(clause_lits(cr)[0], cr);
        }
      }
      decay_var_activity();
      if (conflict_budget >= 0 && conflicts_this_call > conflict_budget) {
        backtrack(0);
        return SatResult::kUnknown;
      }
      if (conflicts_this_call > restart_limit) {
        ++restart_count;
        restart_limit =
            conflicts_this_call + 100 * luby(restart_count);
        backtrack(0);
        reduce_learnts();
      }
      continue;
    }

    // Place assumptions first.
    if (trail_lim_.size() < assumptions.size()) {
      Lit a = assumptions[trail_lim_.size()];
      if (value(a) == Value::kTrue) {
        trail_lim_.push_back(trail_.size());  // dummy decision level
        continue;
      }
      if (value(a) == Value::kFalse) {
        return SatResult::kUnsat;  // assumptions contradictory
      }
      trail_lim_.push_back(trail_.size());
      enqueue(a, kNoReason);
      continue;
    }

    Lit next = pick_branch();
    if (next.code < 0) return SatResult::kSat;
    ++decisions_total_;
    trail_lim_.push_back(trail_.size());
    enqueue(next, kNoReason);
  }
}

bool SatSolver::model_value(int var) const {
  return assign_[var] == Value::kTrue;
}

}  // namespace apx
