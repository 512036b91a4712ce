#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>

#include "core/trace.hpp"

namespace apx {

namespace {

// Smallest power of two >= n (and >= floor_cap).
size_t pow2_at_least(size_t n, size_t floor_cap) {
  size_t cap = floor_cap;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

BddManager::BddManager(int num_vars, size_t max_nodes,
                       std::vector<int> level_to_var)
    : num_vars_(num_vars), max_nodes_(max_nodes), reorder_threshold_(8192) {
  // Terminal nodes: index 0 = false, 1 = true. Terminals use the sentinel
  // variable num_vars (below every real variable in the order).
  var_.push_back(num_vars_);
  kids_.push_back({0, 0});
  var_.push_back(num_vars_);
  kids_.push_back({1, 1});
  var2level_.resize(num_vars_ + 1);
  level2var_.resize(num_vars_ + 1);
  install_order(level_to_var);
  unique_slots_.assign(1024, kInvalidRef);
  // Direct-mapped lossy cache: sized to the budget (bounded at 2^20
  // entries = 16 MB) so big managers don't thrash on a tiny cache.
  size_t ite_cap = std::clamp(pow2_at_least(max_nodes / 4, size_t{1} << 12),
                              size_t{1} << 12, size_t{1} << 20);
  ite_cache_.assign(ite_cap, IteEntry{});
  stats_.peak_nodes = 2;
}

void BddManager::install_order(const std::vector<int>& level_to_var) {
  if (level_to_var.empty()) {
    std::iota(var2level_.begin(), var2level_.end(), 0);
    std::iota(level2var_.begin(), level2var_.end(), 0);
    return;
  }
  if (static_cast<int>(level_to_var.size()) != num_vars_) {
    throw std::logic_error("level_to_var must cover every variable");
  }
  std::vector<char> placed(num_vars_, 0);
  for (int l = 0; l < num_vars_; ++l) {
    int v = level_to_var[l];
    if (v < 0 || v >= num_vars_ || placed[v]) {
      throw std::logic_error(
          "level_to_var must be a permutation of 0..num_vars-1");
    }
    placed[v] = 1;
    level2var_[l] = v;
    var2level_[v] = l;
  }
  // The terminal sentinel sits below every real level.
  level2var_[num_vars_] = num_vars_;
  var2level_[num_vars_] = num_vars_;
}

void BddManager::seed_order(const std::vector<int>& level_to_var) {
  // Levels are baked into every existing internal node; reinterpreting
  // them post hoc would silently change those nodes' functions.
  if (var_.size() != 2 || !free_list_.empty()) {
    throw std::logic_error("seed_order requires an empty manager");
  }
  install_order(level_to_var);
}

void BddManager::unique_insert(Ref id) {
  const size_t mask = unique_slots_.size() - 1;
  size_t idx = hash_triple(var_[id], kids_[id].lo, kids_[id].hi) & mask;
  while (unique_slots_[idx] != kInvalidRef) idx = (idx + 1) & mask;
  unique_slots_[idx] = id;
}

void BddManager::unique_rehash(size_t capacity) {
  // Every live non-terminal node belongs in the table exactly once;
  // inserting from the arena needs no old slot array.
  unique_slots_.assign(capacity, kInvalidRef);
  unique_count_ = live_internal();
  for (Ref id = 2; id < static_cast<Ref>(var_.size()); ++id) {
    if (var_[id] != kFreeVar) unique_insert(id);
  }
}

void BddManager::unique_rebuild() {
  unique_rehash(pow2_at_least((live_internal() + 1) * 10 / 7, 1024));
}

BddManager::Ref BddManager::alloc_node(int32_t var, Ref lo, Ref hi) {
  Ref id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    var_[id] = var;
    kids_[id] = {lo, hi};
  } else {
    id = static_cast<Ref>(var_.size());
    var_.push_back(var);
    kids_.push_back({lo, hi});
  }
  if (live_nodes() > stats_.peak_nodes) stats_.peak_nodes = live_nodes();
  return id;
}

BddManager::Ref BddManager::make_node(int32_t var, Ref lo, Ref hi) {
  if (lo == hi) return lo;
  const size_t mask = unique_slots_.size() - 1;
  size_t idx = hash_triple(var, lo, hi) & mask;
  ++stats_.unique_lookups;
  while (true) {
    ++stats_.unique_probes;
    Ref slot = unique_slots_[idx];
    if (slot == kInvalidRef) break;
    if (var_[slot] == var && kids_[slot].lo == lo && kids_[slot].hi == hi) {
      return slot;
    }
    idx = (idx + 1) & mask;
  }
  if (live_nodes() >= max_nodes_) throw BddOverflow();
  Ref id = alloc_node(var, lo, hi);
  unique_slots_[idx] = id;
  ++unique_count_;
  if ((unique_count_ + 1) * 10 >= unique_slots_.size() * 7) {
    unique_rehash(unique_slots_.size() * 2);
  }
  // Reordering here would move levels under the feet of in-flight
  // recursions (ite_rec holds refs and a top level on its stack), so only
  // latch the request; cooperative callers reorder() at a safe point.
  if (auto_reorder_ && !in_reorder_ && !reorder_pending_ &&
      live_nodes() >= reorder_threshold_) {
    reorder_pending_ = true;
  }
  return id;
}

BddManager::Ref BddManager::var(int v) {
  assert(v >= 0 && v < num_vars_);
  return make_node(v, 0, 1);
}

BddManager::Ref BddManager::literal(int v, bool positive) {
  return positive ? var(v) : make_node(v, 1, 0);
}

BddManager::Ref BddManager::bdd_not(Ref f) { return ite_rec(f, 0, 1); }
BddManager::Ref BddManager::bdd_and(Ref f, Ref g) { return ite_rec(f, g, 0); }
BddManager::Ref BddManager::bdd_or(Ref f, Ref g) { return ite_rec(f, 1, g); }
BddManager::Ref BddManager::bdd_xor(Ref f, Ref g) {
  return ite_rec(f, bdd_not(g), g);
}
BddManager::Ref BddManager::bdd_ite(Ref f, Ref g, Ref h) {
  return ite_rec(f, g, h);
}

BddManager::Ref BddManager::ite_rec(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == 1) return g;
  if (f == 0) return h;
  if (g == h) return g;
  if (g == 1 && h == 0) return f;

  const size_t mask = ite_cache_.size() - 1;
  const size_t idx =
      mix64(static_cast<uint64_t>(f) * 0x9E3779B97F4A7C15ULL +
            ((static_cast<uint64_t>(g) << 32) | h)) &
      mask;
  IteEntry& entry = ite_cache_[idx];
  if (entry.f == f && entry.g == g && entry.h == h) {
    ++stats_.ite_hits;
    return entry.result;
  }
  ++stats_.ite_misses;

  // Decompose on the topmost *level* (not variable index): the recursion
  // is what makes the permutation layer transparent to callers.
  int32_t top_level = std::min({level_of(f), level_of(g), level_of(h)});
  int32_t top_var = level2var_[top_level];
  auto cof = [&](Ref x, bool hi) -> Ref {
    if (var_[x] != top_var) return x;
    return hi ? kids_[x].hi : kids_[x].lo;
  };
  Ref lo = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  Ref hi = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  Ref result = make_node(top_var, lo, hi);
  // Lossy cache: overwrite whatever the recursive calls left in this slot.
  IteEntry& out = ite_cache_[idx];
  out.f = f;
  out.g = g;
  out.h = h;
  out.result = result;
  return out.result;
}

bool BddManager::implies(Ref f, Ref g) { return bdd_and(f, bdd_not(g)) == 0; }

void BddManager::begin_scratch_pass() const {
  if (stamp_.size() < var_.size()) stamp_.resize(var_.size(), 0);
  if (frac_memo_.size() < var_.size()) frac_memo_.resize(var_.size());
  if (ref_memo_.size() < var_.size()) ref_memo_.resize(var_.size());
  if (++stamp_epoch_ == 0) {  // epoch wrapped: invalidate everything
    std::fill(stamp_.begin(), stamp_.end(), 0);
    stamp_epoch_ = 1;
  }
}

double BddManager::sat_fraction_rec(Ref f) {
  if (f == 0) return 0.0;
  if (f == 1) return 1.0;
  if (stamp_[f] == stamp_epoch_) return frac_memo_[f];
  double result =
      0.5 * (sat_fraction_rec(kids_[f].lo) + sat_fraction_rec(kids_[f].hi));
  stamp_[f] = stamp_epoch_;
  frac_memo_[f] = result;
  return result;
}

double BddManager::sat_fraction(Ref f) {
  begin_scratch_pass();
  return sat_fraction_rec(f);
}

double BddManager::sat_count(Ref f) {
  return sat_fraction(f) * std::ldexp(1.0, num_vars_);
}

BddManager::Ref BddManager::cofactor_rec(Ref f, int32_t vlevel, bool value) {
  if (f <= 1) return f;
  const int32_t lev = level_of(f);
  if (lev > vlevel) return f;  // f does not depend on v (v above f's top)
  if (lev == vlevel) return value ? kids_[f].hi : kids_[f].lo;
  if (stamp_[f] == stamp_epoch_) return ref_memo_[f];
  Ref lo = cofactor_rec(kids_[f].lo, vlevel, value);
  Ref hi = cofactor_rec(kids_[f].hi, vlevel, value);
  // Only nodes of f's input DAG are stamped, all of which predate the
  // pass, so make_node growing the arena past stamp_.size() is safe.
  Ref result = make_node(var_[f], lo, hi);
  stamp_[f] = stamp_epoch_;
  ref_memo_[f] = result;
  return result;
}

BddManager::Ref BddManager::cofactor(Ref f, int v, bool value) {
  assert(v >= 0 && v < num_vars_);
  begin_scratch_pass();
  return cofactor_rec(f, var2level_[v], value);
}

BddManager::Ref BddManager::exists(Ref f, int var) {
  return bdd_or(cofactor(f, var, false), cofactor(f, var, true));
}

BddManager::Ref BddManager::forall(Ref f, int var) {
  return bdd_and(cofactor(f, var, false), cofactor(f, var, true));
}

BddManager::Ref BddManager::exists_many(Ref f, const std::vector<bool>& vars) {
  // Quantify bottom-up (deepest level first) so intermediate results stay
  // small near the terminals. Depth means level, not variable index.
  std::vector<int> order;
  for (int v = 0; v < static_cast<int>(vars.size()); ++v) {
    if (vars[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return var2level_[a] > var2level_[b]; });
  for (int v : order) f = exists(f, v);
  return f;
}

BddManager::Ref BddManager::boolean_difference(Ref f, int var) {
  return bdd_xor(cofactor(f, var, false), cofactor(f, var, true));
}

BddManager::Ref BddManager::compose(Ref f, int var, Ref g) {
  // f[var <- g] = ITE(g, f|var=1, f|var=0).
  return bdd_ite(g, cofactor(f, var, true), cofactor(f, var, false));
}

bool BddManager::evaluate(Ref f, uint64_t input) const {
  while (f > 1) {
    f = ((input >> var_[f]) & 1) ? kids_[f].hi : kids_[f].lo;
  }
  return f == 1;
}

std::vector<bool> BddManager::support(Ref f) const {
  begin_scratch_pass();
  std::vector<bool> vars(num_vars_, false);
  std::vector<Ref> stack = {f};
  while (!stack.empty()) {
    Ref r = stack.back();
    stack.pop_back();
    if (r <= 1 || stamp_[r] == stamp_epoch_) continue;
    stamp_[r] = stamp_epoch_;
    vars[var_[r]] = true;
    stack.push_back(kids_[r].lo);
    stack.push_back(kids_[r].hi);
  }
  return vars;
}

size_t BddManager::size(Ref f) const {
  begin_scratch_pass();
  std::vector<Ref> stack = {f};
  size_t count = 0;
  while (!stack.empty()) {
    Ref r = stack.back();
    stack.pop_back();
    if (r <= 1 || stamp_[r] == stamp_epoch_) continue;
    stamp_[r] = stamp_epoch_;
    ++count;
    stack.push_back(kids_[r].lo);
    stack.push_back(kids_[r].hi);
  }
  return count;
}

std::vector<BddManager::Ref> BddManager::garbage_collect(
    const std::vector<Ref>& roots) {
  std::vector<Ref> remap = compact(roots);
  unique_rebuild();
  return remap;
}

std::vector<BddManager::Ref> BddManager::compact(
    const std::vector<Ref>& roots) {
  ++stats_.gc_runs;
  if (trace::enabled()) {
    trace::counter("bdd.gc_runs").add(1);
    trace::counter("bdd.peak_nodes", trace::CounterKind::kGauge)
        .set_max(static_cast<int64_t>(stats_.peak_nodes));
  }
  std::vector<Ref> remap(var_.size(), kInvalidRef);
  std::vector<int32_t> kept_var;
  std::vector<BddChildren> kept_kids;
  kept_var.reserve(live_nodes());
  kept_kids.reserve(live_nodes());
  kept_var.push_back(var_[0]);
  kept_kids.push_back(kids_[0]);
  kept_var.push_back(var_[1]);
  kept_kids.push_back(kids_[1]);
  remap[0] = 0;
  remap[1] = 1;
  // Post-order DFS compaction: a node is emitted only after both children,
  // so children's remap entries are final when the parent is rewritten.
  // (Index order is not enough once free-list reuse by sifting breaks the
  // arena's children-before-parents monotonicity.) Roots equal to
  // kInvalidRef are permitted (callers keep sentinel slots for nodes
  // outside their cones) and simply ignored.
  std::vector<Ref> stack;
  for (Ref r : roots) {
    if (r == kInvalidRef || r >= remap.size() || remap[r] != kInvalidRef) {
      continue;
    }
    assert(var_[r] != kFreeVar && "GC root references a freed node");
    stack.push_back(r);
  }
  while (!stack.empty()) {
    Ref r = stack.back();
    if (remap[r] != kInvalidRef) {  // finished via another parent
      stack.pop_back();
      continue;
    }
    const Ref lo = kids_[r].lo;
    const Ref hi = kids_[r].hi;
    bool ready = true;
    if (remap[lo] == kInvalidRef) {
      stack.push_back(lo);
      ready = false;
    }
    if (remap[hi] == kInvalidRef) {
      stack.push_back(hi);
      ready = false;
    }
    if (!ready) continue;
    stack.pop_back();
    remap[r] = static_cast<Ref>(kept_var.size());
    kept_var.push_back(var_[r]);
    kept_kids.push_back({remap[lo], remap[hi]});
  }
  var_ = std::move(kept_var);
  kids_ = std::move(kept_kids);
  free_list_.clear();

  // Refs changed meaning: drop every cached/memoized entry.
  std::fill(ite_cache_.begin(), ite_cache_.end(), IteEntry{});
  stamp_.assign(var_.size(), 0);
  stamp_epoch_ = 0;
  return remap;
}

// ---- dynamic reordering ----

void BddManager::register_external_refs(std::vector<Ref>* slots) {
  unregister_external_refs(slots);  // idempotent
  external_slots_.push_back(slots);
}

void BddManager::unregister_external_refs(std::vector<Ref>* slots) {
  external_slots_.erase(
      std::remove(external_slots_.begin(), external_slots_.end(), slots),
      external_slots_.end());
}

void BddManager::build_subtables() {
  // The arena was just compacted, so every slot from 2 on is live.
  sub_.assign(num_vars_, Subtable{});
  for (Ref r = 2; r < static_cast<Ref>(var_.size()); ++r) ++sub_[var_[r]].count;
  for (Subtable& table : sub_) {
    table.heads.assign(pow2_at_least(table.count, 4), kChainEnd);
  }
  next_.resize(var_.size());
  for (Ref r = 2; r < static_cast<Ref>(var_.size()); ++r) {
    Ref& head = sub_[var_[r]].bucket(kids_[r].lo, kids_[r].hi);
    next_[r] = head;
    head = r;
  }
}

void BddManager::sub_grow(Subtable& table) {
  std::vector<Ref> old = std::move(table.heads);
  table.heads.assign(old.size() * 2, kChainEnd);
  for (Ref chain : old) {
    while (chain != kChainEnd) {
      const Ref n = chain;
      chain = next_[n];
      Ref& head = table.bucket(kids_[n].lo, kids_[n].hi);
      next_[n] = head;
      head = n;
    }
  }
}

void BddManager::sub_link(int32_t var, Ref n) {
  Subtable& table = sub_[var];
  Ref& head = table.bucket(kids_[n].lo, kids_[n].hi);
  next_[n] = head;
  head = n;
  if (++table.count > table.heads.size()) sub_grow(table);
}

void BddManager::sub_unlink(int32_t var, Ref n) {
  Subtable& table = sub_[var];
  Ref* link = &table.bucket(kids_[n].lo, kids_[n].hi);
  while (*link != n) {
    assert(*link != kChainEnd && "unlinking a node not in its subtable");
    link = &next_[*link];
  }
  *link = next_[n];
  --table.count;
}

void BddManager::deref(Ref r) {
  // Called only by swap_levels on the old children f0/f1 of a rewritten
  // node, after its new children g0/g1 took their references. Every
  // grandchild f_ij is then referenced by g0 or g1 (as a child, or as g_i
  // itself when f_i0 == f_i1), so a dying child frees exactly one node —
  // the y-level child — and the cascade stops at its children.
  if (r <= 1) return;
  assert(parent_count_[r] > 0 && "deref of an unreferenced node");
  if (--parent_count_[r] != 0) return;
  sub_unlink(var_[r], r);  // before the key (lo, hi) is clobbered
  for (const Ref child : {kids_[r].lo, kids_[r].hi}) {
    assert((child <= 1 || parent_count_[child] > 1) &&
           "swap deref cascaded past one level");
    --parent_count_[child];
  }
  var_[r] = kFreeVar;
  free_list_.push_back(r);
}

BddManager::Ref BddManager::swap_find_or_make(int32_t var, Ref lo, Ref hi) {
  // make_node twin for use inside swaps, on var's subtable: maintains
  // parent_count_ (result's count is pre-incremented for the caller's
  // reference; a fresh node also counts its two children). No reorder
  // latch, no node cap — the sift_var max-growth abort bounds temporary
  // growth instead.
  Ref id = lo;
  if (lo != hi) {
    for (id = sub_[var].bucket(lo, hi); id != kChainEnd; id = next_[id]) {
      if (kids_[id].lo == lo && kids_[id].hi == hi) break;
    }
    if (id == kChainEnd) {
      id = alloc_node(var, lo, hi);
      if (parent_count_.size() <= id) {
        parent_count_.resize(id + 1);
        next_.resize(id + 1);
      }
      parent_count_[id] = 0;
      ++parent_count_[lo];
      ++parent_count_[hi];
      sub_link(var, id);
    }
  }
  ++parent_count_[id];
  return id;
}

void BddManager::build_interaction_matrix(const std::vector<Ref>& roots) {
  // u and v interact iff some root's support contains both. Every arena
  // node is root-reachable here (reorder() GCs first), so a node labelled
  // x with a child labelled y implies x and y interact; contrapositive:
  // non-interacting level pairs swap with zero node rewrites.
  interact_words_ = (static_cast<size_t>(num_vars_) + 63) / 64;
  interact_.assign(static_cast<size_t>(num_vars_) * interact_words_, 0);
  std::vector<Ref> uniq(roots);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  std::vector<uint32_t> mark(var_.size(), 0);
  std::vector<uint64_t> sup(interact_words_);
  std::vector<Ref> stack;
  uint32_t tag = 0;
  for (Ref root : uniq) {
    if (root <= 1) continue;
    ++tag;
    std::fill(sup.begin(), sup.end(), 0);
    stack.push_back(root);
    while (!stack.empty()) {
      const Ref n = stack.back();
      stack.pop_back();
      if (n <= 1 || mark[n] == tag) continue;
      mark[n] = tag;
      const int32_t v = var_[n];
      sup[static_cast<size_t>(v) / 64] |= 1ull << (static_cast<size_t>(v) % 64);
      stack.push_back(kids_[n].lo);
      stack.push_back(kids_[n].hi);
    }
    for (int32_t v = 0; v < num_vars_; ++v) {
      if ((sup[static_cast<size_t>(v) / 64] >>
           (static_cast<size_t>(v) % 64)) &
          1u) {
        uint64_t* row = &interact_[static_cast<size_t>(v) * interact_words_];
        for (size_t w = 0; w < interact_words_; ++w) row[w] |= sup[w];
      }
    }
  }
}

void BddManager::swap_levels(int level) {
  // Exchange the variables at `level` and `level + 1`. Only nodes labelled
  // with the upper variable x that reference the lower variable y change;
  // they are rewritten *in place* (same Ref, same function, new label y),
  // which is what keeps every live Ref stable across sifting. Nodes not
  // at these two levels are untouched by construction.
  const int32_t x = level2var_[level];
  const int32_t y = level2var_[level + 1];
  if (!interact_.empty() && !interacts(x, y)) {
    // Disjoint supports: no x-node has a y-child, so the swap is pure
    // permutation bookkeeping — the dominant case on wide, shallow
    // circuits where most PI pairs never meet in one cone.
    std::swap(level2var_[level], level2var_[level + 1]);
    var2level_[x] = level + 1;
    var2level_[y] = level;
    return;
  }
  // Unlink, in place, every x-node with a y child onto a private list
  // threaded through next_; the rest stay linked and silently move down
  // one level with their label.
  Subtable& xs = sub_[x];
  Ref moved = kChainEnd;
  for (Ref& head : xs.heads) {
    Ref* link = &head;
    while (*link != kChainEnd) {
      const Ref n = *link;
      if (var_[kids_[n].lo] == y || var_[kids_[n].hi] == y) {
        *link = next_[n];
        next_[n] = moved;
        moved = n;
        --xs.count;
      } else {
        link = &next_[n];
      }
    }
  }
  while (moved != kChainEnd) {
    const Ref n = moved;
    moved = next_[n];
    const Ref f0 = kids_[n].lo;
    const Ref f1 = kids_[n].hi;
    const bool lo_y = var_[f0] == y;
    const bool hi_y = var_[f1] == y;
    const Ref f00 = lo_y ? kids_[f0].lo : f0;
    const Ref f01 = lo_y ? kids_[f0].hi : f0;
    const Ref f10 = hi_y ? kids_[f1].lo : f1;
    const Ref f11 = hi_y ? kids_[f1].hi : f1;
    // g0/g1 have no y child, so x's subtable (n already left it) is the
    // whole search space.
    const Ref g0 = swap_find_or_make(x, f00, f10);
    const Ref g1 = swap_find_or_make(x, f01, f11);
    assert(g0 != g1 && "swap produced a redundant node");
    var_[n] = y;
    kids_[n] = {g0, g1};
    sub_link(y, n);
    // New references were counted above; dropping the old ones last means
    // shared children never see a transient zero count.
    deref(f0);
    deref(f1);
  }
  std::swap(level2var_[level], level2var_[level + 1]);
  var2level_[x] = level + 1;
  var2level_[y] = level;
}

void BddManager::sift_var(int x) {
  const int bottom = num_vars_ - 1;
  const int start = var2level_[x];
  const size_t start_size = live_internal();
  const size_t limit = start_size + start_size / 5 + 2;  // 1.2x growth abort
  size_t best_size = start_size;
  int best = start;
  int cur = start;
  auto move_to = [&](int target) {
    while (cur < target) swap_levels(cur++);
    while (cur > target) swap_levels(--cur);
  };
  auto sweep = [&](int end, int step) {
    while (cur != end) {
      if (step > 0) {
        swap_levels(cur);
        ++cur;
      } else {
        --cur;
        swap_levels(cur);
      }
      const size_t s = live_internal();
      if (s < best_size) {
        best_size = s;
        best = cur;
      }
      if (s > limit) break;
    }
  };
  // Sweep toward the nearer end first (fewer swaps to undo on abort),
  // return to the start, sweep the other way, then park at the best level
  // seen. Post-GC the live size is a pure function of the order, so
  // live_internal() measured at each stop is exact.
  if (bottom - start <= start) {
    sweep(bottom, +1);
    move_to(start);
    sweep(0, -1);
  } else {
    sweep(0, -1);
    move_to(start);
    sweep(bottom, +1);
  }
  move_to(best);
}

void BddManager::sift(const std::vector<Ref>& roots) {
  // Scoped reference counts: the arena was just garbage-collected, so
  // every node is reachable and in-arena parent edges plus one pin per
  // root occurrence give exact liveness for the duration of the pass.
  parent_count_.assign(var_.size(), 0);
  for (Ref r = 2; r < static_cast<Ref>(var_.size()); ++r) {
    ++parent_count_[kids_[r].lo];
    ++parent_count_[kids_[r].hi];
  }
  for (Ref r : roots) {
    if (r != kInvalidRef) ++parent_count_[r];
  }
  build_subtables();
  build_interaction_matrix(roots);

  constexpr size_t kMaxSiftVars = 128;  // CUDD-style per-pass variable cap
  // Two passes capture nearly all of the reduction on these table sizes;
  // later passes cost as much as the first while reclaiming a few percent,
  // and converged orders are cached across builds anyway.
  constexpr int kMaxPasses = 2;
  size_t prev = live_internal();
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    // Most-populated variables first: biggest expected gain, and empty
    // variables are skipped outright (their swaps are no-ops anyway).
    std::vector<std::pair<size_t, int>> occupancy;
    occupancy.reserve(num_vars_);
    for (int v = 0; v < num_vars_; ++v) {
      const size_t count = sub_[v].count;
      // Lower-bound prune: the sweep for a variable with c nodes cannot
      // shrink the table by more than c - 1 (its own level collapsing is
      // the best case), so single-node variables — the common tail after
      // convergence — are skipped outright instead of paying 2n swaps
      // for a provably zero gain.
      if (count > 1) occupancy.emplace_back(count, v);
    }
    std::sort(occupancy.begin(), occupancy.end(),
              [](const std::pair<size_t, int>& a,
                 const std::pair<size_t, int>& b) { return a.first > b.first; });
    if (occupancy.size() > kMaxSiftVars) occupancy.resize(kMaxSiftVars);
    for (const auto& [count, v] : occupancy) sift_var(v);
    const size_t now = live_internal();
    // Converged when the pass gained less than 2% — with a floor of one
    // node so small tables (prev < 50, where prev/50 == 0) still demand a
    // real improvement to keep sifting rather than degenerating into a
    // zero-tolerance comparison.
    if (now + std::max<size_t>(1, prev / 50) >= prev) break;
    prev = now;
  }
  parent_count_.clear();
  sub_.clear();
  next_.clear();
  interact_.clear();
}

std::vector<BddManager::Ref> BddManager::reorder(
    const std::vector<Ref>& extra_roots) {
  reorder_pending_ = false;
  // Reorder budget: a manager seeded with a previously converged order is
  // not expected to beat that order until it outgrows it, so absorb the
  // request — no GC, no sifting, refs stay valid (identity remap). The
  // growth threshold backs off exactly like the sifting path so the
  // make_node latch does not re-fire on the very next allocation.
  if (reorder_budget_ != 0 && live_nodes() <= reorder_budget_) {
    ++stats_.reorder_skipped;
    if (trace::enabled()) {
      trace::counter("bdd.reorder_skipped_budget").add(1);
    }
    reorder_threshold_ = std::max(reorder_threshold_, 2 * live_nodes());
    std::vector<Ref> identity(var_.size());
    std::iota(identity.begin(), identity.end(), 0);
    return identity;
  }
  std::vector<Ref> roots;
  for (const std::vector<Ref>* slots : external_slots_) {
    for (Ref r : *slots) {
      if (r != kInvalidRef) roots.push_back(r);
    }
  }
  for (Ref r : extra_roots) {
    if (r != kInvalidRef) roots.push_back(r);
  }
  if (roots.empty()) {
    // No known roots: collecting would drop every node. Identity no-op.
    std::vector<Ref> identity(var_.size());
    std::iota(identity.begin(), identity.end(), 0);
    return identity;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Compact without rebuilding the flat table: sifting works on its own
  // subtables, and the flat table is rebuilt once from the final arena.
  std::vector<Ref> remap = compact(roots);
  for (std::vector<Ref>* slots : external_slots_) {
    for (Ref& r : *slots) {
      if (r != kInvalidRef) r = remap[r];
    }
  }
  for (Ref& r : roots) r = remap[r];  // all live: they were the GC roots
  in_reorder_ = true;
  {
    trace::Span span("bdd.reorder");
    sift(roots);
    unique_rebuild();
  }
  in_reorder_ = false;
  ++stats_.reorder_runs;
  if (trace::enabled()) {
    trace::counter("bdd.reorder_runs").add(1);
    trace::counter("bdd.peak_nodes", trace::CounterKind::kGauge)
        .set_max(static_cast<int64_t>(stats_.peak_nodes));
  }
  // Back off: don't re-trigger until the arena quadruples from here. A
  // monotonically growing build re-sifts O(log4 n) times instead of
  // O(log2 n); sift cost rises with table size, so halving the re-sift
  // count roughly halves total sift time while the max-growth abort in
  // sift_var still bounds the peak between runs.
  reorder_threshold_ = std::max(reorder_threshold_, 4 * live_nodes());
  stats_.reorder_time_ms += std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  return remap;
}

}  // namespace apx
