// A compact ROBDD package (CUDD-style, without complement edges) used as the
// implication/counting oracle for the synthesis flow: checking G => F for
// approximation correctness (paper Sec. 2.2) and computing approximation
// percentages by minterm counting (paper Sec. 2).
//
// Nodes live in an arena; references are indices. Terminals are 0 (false)
// and 1 (true). A node limit guards against blow-up; operations throw
// BddOverflow when exceeded so callers can fall back to SAT/simulation.
//
// Internals are tuned for the incremental oracle's access pattern:
//  * The unique table is an open-addressed flat array (power-of-two
//    capacity, linear probing, insert-only) over splitmix64-mixed
//    (var, lo, hi) keys — no per-node heap allocation, cache-friendly
//    probes. Sifting bypasses it: inside reorder() every variable owns a
//    chained subtable, and the flat table is rebuilt once afterwards.
//  * The ITE cache is a lossy direct-mapped table: collisions overwrite,
//    keeping memory bounded and lookups O(1).
//  * sat_fraction/support/size/cofactor reuse an epoch-stamped scratch
//    arena instead of allocating a memo per call; cofactor (and compose,
//    which recurses through it) is memoized per pass, so shared DAGs cost
//    O(nodes) instead of exponential plain recursion.
//  * garbage_collect() reclaims nodes unreachable from a caller-supplied
//    root set by mark-and-sweep compaction, so long-lived managers survive
//    many cone rebuilds without a from-scratch reconstruction.
//
// Variable ordering: the manager carries a permutation layer (PI index <->
// level). The external interface speaks variable indices throughout —
// var(i), evaluate bit i, support[i] — while the internal recursions
// branch by level, so any order is transparent to callers. A structural
// static order (network/ordering.hpp) seeds the permutation; Rudell
// sifting (reorder()) refines it dynamically with in-place adjacent-level
// swaps on per-variable chained subtables (CUDD-style: a swap walks only
// the upper variable's chains, and freeing a node is an unlink, not a
// probe of the whole table): a swap preserves every live Ref's identity and
// function, so only the garbage-collection phase of reorder() moves refs,
// and the returned remap follows the garbage_collect() contract. Clients
// holding long-lived refs register their vectors via
// register_external_refs(); reorder() uses them as GC roots and rewrites
// them in place. make_node latches a reorder request when the live arena
// crosses the growth threshold; cooperative callers poll reorder_pending()
// at safe points (no operation in flight) and invoke reorder().
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace apx {

/// Thrown when the manager exceeds its configured node budget.
class BddOverflow : public std::runtime_error {
 public:
  BddOverflow() : std::runtime_error("BDD node limit exceeded") {}
};

class BddManager {
 public:
  using Ref = uint32_t;

  /// Returned by garbage_collect() for refs that were not reachable from
  /// the supplied roots (their nodes are gone).
  static constexpr Ref kInvalidRef = 0xFFFFFFFFu;

  /// `max_nodes` bounds the live arena (default ~8M nodes = ~128 MB).
  /// `level_to_var`, when non-empty, must be a permutation of
  /// 0..num_vars-1: position l holds the variable placed at level l
  /// (level 0 = top). Empty selects the identity order.
  explicit BddManager(int num_vars, size_t max_nodes = 8u << 20,
                      std::vector<int> level_to_var = {});

  int num_vars() const { return num_vars_; }
  /// Arena extent, including freed (reusable) slots.
  size_t num_nodes() const { return var_.size(); }
  /// Nodes currently alive (arena minus the free list).
  size_t live_nodes() const { return var_.size() - free_list_.size(); }

  Ref zero() const { return 0; }
  Ref one() const { return 1; }

  /// BDD for variable `var` (position in the order given by the
  /// permutation layer; identity unless constructed/reordered otherwise).
  Ref var(int var);
  /// BDD for the literal var / var'.
  Ref literal(int var, bool positive);

  /// Current level of variable `var` / variable at `level` (diagnostics,
  /// tests, and the ordering benches).
  int level_of_var(int var) const { return var2level_[var]; }
  int var_at_level(int level) const { return level2var_[level]; }

  Ref bdd_not(Ref f);
  Ref bdd_and(Ref f, Ref g);
  Ref bdd_or(Ref f, Ref g);
  Ref bdd_xor(Ref f, Ref g);
  Ref bdd_ite(Ref f, Ref g, Ref h);

  /// Does f imply g (f & ~g == 0)?
  bool implies(Ref f, Ref g);

  /// Fraction of the 2^num_vars minterm space on which f is 1.
  double sat_fraction(Ref f);

  /// Number of satisfying minterms (as double; exact up to 2^53).
  double sat_count(Ref f);

  /// Cofactor f with var=value (memoized per call over f's DAG).
  Ref cofactor(Ref f, int var, bool value);

  /// Existential quantification: exists var. f = f|var=0 OR f|var=1.
  Ref exists(Ref f, int var);
  /// Universal quantification: forall var. f = f|var=0 AND f|var=1.
  Ref forall(Ref f, int var);
  /// Quantifies a set of variables (bitmask by index).
  Ref exists_many(Ref f, const std::vector<bool>& vars);

  /// Boolean difference d f / d var (the observability function of var).
  Ref boolean_difference(Ref f, int var);

  /// Substitutes function g for variable var inside f (compose).
  Ref compose(Ref f, int var, Ref g);

  /// Evaluate f on a full assignment (bit i of `input` = variable i).
  bool evaluate(Ref f, uint64_t input) const;

  /// Variable support of f as a bitmask vector.
  std::vector<bool> support(Ref f) const;

  /// Structural size (number of distinct internal nodes) of f.
  size_t size(Ref f) const;

  /// Mark-and-sweep: keeps only nodes reachable from `roots` (terminals
  /// always survive), compacts the arena and rebuilds the unique table.
  /// Returns the old-ref -> new-ref map (kInvalidRef for collected nodes);
  /// every Ref held by the caller MUST be remapped through it. The ITE
  /// cache and scratch memos are invalidated.
  std::vector<Ref> garbage_collect(const std::vector<Ref>& roots);

  // ---- dynamic reordering ----

  /// Registers a vector of externally held refs. Registered vectors are
  /// used as garbage-collection roots by reorder() and are rewritten in
  /// place through the remap (entries equal to kInvalidRef are skipped,
  /// matching the build_cone_bdds sentinel). The pointer must stay valid
  /// until unregistered or the manager is destroyed; the vector may be
  /// reassigned (same object) freely between calls.
  void register_external_refs(std::vector<Ref>* slots);
  void unregister_external_refs(std::vector<Ref>* slots);

  /// Garbage-collects from the registered vectors plus `extra_roots`,
  /// then runs Rudell sifting passes over the compacted arena. Adjacent-
  /// level swaps are in-place and function-preserving, so the returned
  /// remap — which callers holding *unregistered* refs (the extras) MUST
  /// apply, per the garbage_collect contract — comes entirely from the
  /// collection phase. Registered vectors are rewritten automatically; do
  /// not also pass their contents as extras (the remap would be applied
  /// twice). With no registered vectors and no extras this is a no-op
  /// returning the identity map.
  std::vector<Ref> reorder(const std::vector<Ref>& extra_roots = {});

  /// True when make_node crossed the growth threshold since the last
  /// reorder: cooperative callers should invoke reorder() at their next
  /// safe point (no refs in flight outside registered vectors).
  bool reorder_pending() const { return reorder_pending_; }

  /// Enables/disables the make_node growth trigger (sifting via an
  /// explicit reorder() call works either way). The threshold is the live
  /// node count that latches reorder_pending_; it doubles after every
  /// reorder so a structurally big result cannot thrash.
  void set_auto_reorder(bool enabled) { auto_reorder_ = enabled; }
  /// Replaces the growth threshold and re-evaluates the latched request
  /// against it: raising the threshold above the current live count clears
  /// a pending reorder (it would sift a table that no longer qualifies),
  /// and lowering it below the live count latches one.
  void set_reorder_threshold(size_t threshold) {
    reorder_threshold_ = threshold;
    if (auto_reorder_ && !in_reorder_) {
      reorder_pending_ = live_nodes() >= reorder_threshold_;
    }
  }

  /// Arms the reorder budget: while the live-node count stays at or below
  /// `budget`, reorder() skips sifting entirely (the pending latch is
  /// cleared, the growth threshold backs off past the current live count,
  /// and the identity remap is returned — refs stay valid). Callers
  /// seeding a previously converged order use this so the seeded build
  /// does not pay for sifting again until it outgrows what the converged
  /// order achieved. The growth trigger still latches normally; the skip
  /// happens (and is counted) at the reorder() safe point. 0 (the
  /// default) disables the budget.
  void set_reorder_budget(size_t budget) { reorder_budget_ = budget; }
  size_t reorder_budget() const { return reorder_budget_; }

  /// Current variable order, top level first: position l holds the
  /// variable at level l (the `level_to_var` shape the constructor and
  /// seed_order accept). The terminal sentinel is excluded.
  std::vector<int> export_order() const {
    return std::vector<int>(level2var_.begin(), level2var_.end() - 1);
  }

  /// Installs a previously converged var<->level permutation. Only legal
  /// on an empty manager (no internal nodes yet): seeding reinterprets
  /// which variable every level refers to, which would silently change
  /// the function of existing nodes. Throws std::logic_error otherwise or
  /// when `level_to_var` is not a permutation of 0..num_vars-1.
  void seed_order(const std::vector<int>& level_to_var);

  /// Hash-quality / workload counters (monotone since construction).
  /// unique_lookups/unique_probes count make_node's flat-table traffic
  /// only: sifting's lookups go to the per-variable subtables and are not
  /// counted, so avg_probe_length() describes the table callers hit.
  struct Stats {
    uint64_t unique_lookups = 0;  ///< make_node unique-table lookups
    uint64_t unique_probes = 0;   ///< slots inspected across those lookups
    uint64_t ite_hits = 0;
    uint64_t ite_misses = 0;
    uint64_t peak_nodes = 0;    ///< max live nodes ever in the arena
    uint64_t gc_runs = 0;       ///< garbage_collect invocations
    uint64_t reorder_runs = 0;  ///< reorder() invocations that sifted
    uint64_t reorder_skipped = 0;  ///< reorder() calls absorbed by the budget
    double reorder_time_ms = 0.0;  ///< total wall time inside reorder()
    /// Mean slots inspected per unique-table lookup (1.0 = collision-free).
    double avg_probe_length() const {
      return unique_lookups ? static_cast<double>(unique_probes) /
                                  static_cast<double>(unique_lookups)
                            : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Children pair of one arena slot. 8 bytes and 8-aligned in its own
  /// array, so an entry never straddles a cache line — unlike the legacy
  /// 12-byte {var, lo, hi} AoS node, which crossed a line boundary every
  /// other slot. Variable labels live in the parallel int32 `var_` array
  /// (16 per line), so label-only sweeps (free-slot checks, y-child tests
  /// during swaps) touch a quarter of the lines the AoS layout did.
  struct BddChildren {
    Ref lo;
    Ref hi;
  };

  /// Arena slots on the free list carry this var marker.
  static constexpr int32_t kFreeVar = -1;

  // Lossy direct-mapped ITE cache entry; `f == kInvalidRef` marks empty.
  struct IteEntry {
    Ref f = kInvalidRef;
    Ref g = 0;
    Ref h = 0;
    Ref result = 0;
  };

  /// splitmix64 finalizer: full-avalanche mixing so sequential Refs (the
  /// common case: nodes are allocated in topological waves) spread over
  /// the whole table instead of clustering in the low bits.
  static uint64_t mix64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  static uint64_t hash_triple(int32_t var, Ref lo, Ref hi) {
    uint64_t packed = (static_cast<uint64_t>(lo) << 32) | hi;
    return mix64(packed ^ (static_cast<uint64_t>(static_cast<uint32_t>(var)) *
                           0x9E3779B97F4A7C15ULL));
  }

  Ref make_node(int32_t var, Ref lo, Ref hi);
  int32_t var_of(Ref f) const { return var_[f]; }
  int32_t level_of(Ref f) const { return var2level_[var_[f]]; }
  Ref ite_rec(Ref f, Ref g, Ref h);
  void unique_insert(Ref id);
  /// Re-inserts every live arena node into a fresh flat table of
  /// `capacity` slots (a power of two).
  void unique_rehash(size_t capacity);
  /// Re-inserts every live node into a flat table sized for the live count.
  void unique_rebuild();
  /// garbage_collect without the flat-table rebuild: reorder() rebuilds
  /// the table once after sifting instead.
  std::vector<Ref> compact(const std::vector<Ref>& roots);
  Ref alloc_node(int32_t var, Ref lo, Ref hi);
  double sat_fraction_rec(Ref f);
  Ref cofactor_rec(Ref f, int32_t vlevel, bool value);
  /// Bumps the scratch epoch and sizes the stamp arena to the arena.
  void begin_scratch_pass() const;

  // ---- sifting internals (valid only inside reorder()) ----

  /// Chain terminator in subtable buckets and next_ links. Ref 0 is the
  /// false terminal, which never sits in a subtable.
  static constexpr Ref kChainEnd = 0;

  /// Per-variable chained unique subtable: power-of-two bucket heads over
  /// splitmix64-mixed (lo, hi) keys, chains threaded through next_, and
  /// the number of live nodes carrying the variable.
  struct Subtable {
    std::vector<Ref> heads;
    size_t count = 0;
    Ref& bucket(Ref lo, Ref hi) {
      return heads[mix64((static_cast<uint64_t>(lo) << 32) | hi) &
                   (heads.size() - 1)];
    }
  };
  void build_subtables();
  void sub_link(int32_t var, Ref n);
  void sub_unlink(int32_t var, Ref n);
  void sub_grow(Subtable& table);

  void sift(const std::vector<Ref>& roots);
  void sift_var(int var);
  void swap_levels(int level);
  void build_interaction_matrix(const std::vector<Ref>& roots);
  bool interacts(int32_t u, int32_t v) const {
    return (interact_[static_cast<size_t>(u) * interact_words_ +
                      static_cast<size_t>(v) / 64] >>
            (static_cast<size_t>(v) % 64)) &
           1u;
  }
  Ref swap_find_or_make(int32_t var, Ref lo, Ref hi);
  /// Drops one in-swap reference; frees the node if it was the last one
  /// (only a lower-level child can die, and its own children survive).
  void deref(Ref r);
  size_t live_internal() const { return var_.size() - 2 - free_list_.size(); }

  int num_vars_;
  size_t max_nodes_;
  // Node arena, split SoA (see BddChildren). var_[r] is the variable label
  // of slot r (terminals use the num_vars sentinel, freed slots kFreeVar);
  // kids_[r] holds its children. Both arrays always have identical size.
  std::vector<int32_t> var_;
  std::vector<BddChildren> kids_;

  // Permutation layer: both arrays have num_vars_+1 entries; the last maps
  // the terminal sentinel to itself so level_of works on terminals.
  std::vector<int> var2level_;
  std::vector<int> level2var_;

  // Open-addressed unique table: slots hold Refs into the arena (kInvalidRef
  // = empty). Capacity is a power of two; grown at ~70% load.
  std::vector<Ref> unique_slots_;
  size_t unique_count_ = 0;

  std::vector<IteEntry> ite_cache_;  // power-of-two, direct-mapped, lossy

  // Epoch-stamped scratch arena shared by sat_fraction/support/size/
  // cofactor: stamp_[r] == stamp_epoch_ means "visited this pass" (with
  // frac_memo_[r] / ref_memo_[r] valid for the pass kind that stamped).
  // No per-call allocation.
  mutable std::vector<uint32_t> stamp_;
  mutable std::vector<double> frac_memo_;
  mutable std::vector<Ref> ref_memo_;
  mutable uint32_t stamp_epoch_ = 0;

  // Reordering state. free_list_ holds arena slots vacated by sifting
  // (alloc_node reuses them before growing the arena); parent_count_,
  // sub_ and next_ are per-reorder scratch (in-arena reference counts
  // seeded with root pins, one chained unique subtable per variable, and
  // one chain link per arena slot, all maintained across swaps).
  /// Validates and installs a level_to_var permutation into var2level_/
  /// level2var_ (shared by the constructor and seed_order).
  void install_order(const std::vector<int>& level_to_var);

  bool auto_reorder_ = true;
  bool reorder_pending_ = false;
  bool in_reorder_ = false;
  size_t reorder_threshold_;
  size_t reorder_budget_ = 0;
  std::vector<Ref> free_list_;
  std::vector<std::vector<Ref>*> external_slots_;
  std::vector<uint32_t> parent_count_;
  std::vector<Subtable> sub_;
  std::vector<Ref> next_;
  // Per-reorder variable interaction matrix (row-major bitset): u and v
  // interact iff they co-occur in some root's support. Support is a
  // property of the functions, not the order, so the matrix stays valid
  // across every swap of one sift run.
  std::vector<uint64_t> interact_;
  size_t interact_words_ = 0;

  mutable Stats stats_;
};

}  // namespace apx
