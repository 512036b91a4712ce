// Implication/equivalence oracle for approximation correctness (paper
// Sec. 2.2): BDD-based checking with a SAT fallback on BDD blow-up, plus
// approximation-percentage measurement (exact by BDD minterm counting,
// sampled by simulation as a fallback).
//
// ApproxOracle amortizes one shared BDD manager across every PO of an
// (original, approximate) network pair — essential for multi-output
// circuits, where per-PO managers would rebuild shared cones hundreds of
// times.
#pragma once

#include <memory>
#include <optional>

#include "bdd/network_bdd.hpp"
#include "core/approx_types.hpp"
#include "network/network.hpp"
#include "network/topology_view.hpp"

namespace apx {

/// What must hold between an original PO F and its approximation G.
///   kOneApprox:  G => F   (G's on-set inside F's on-set)
///   kZeroApprox: F => G   (G's off-set inside F's off-set)
bool implication_holds_for(ApproxDirection d, bool g_implies_f,
                           bool f_implies_g);

/// Shared verification oracle over an (original, approx) network pair with
/// matching PIs and POs. Builds global BDDs for both networks in one
/// manager; on overflow every query falls back to SAT (for decisions) or
/// bit-parallel simulation (for percentages).
///
/// The oracle is incremental across repair rounds (the stage-2 loop of
/// paper Sec. 2.2 alternates node repairs with implication checks): it
/// watches the approx network's version stamps, and refresh_approx()
/// re-derives only the BDDs in the transitive fanout of nodes mutated
/// since the previous refresh. The original network's BDDs are built once
/// and never touched; BDD garbage left behind by replaced cones is
/// reclaimed by mark-and-sweep on the live per-node refs. The SAT fallback
/// is likewise incremental: dirty cones are re-encoded under fresh
/// variables with activation-literal assumptions, so the solver instance —
/// and its learned clauses — survives every repair.
struct ApproxOracleState;

class ApproxOracle {
 public:
  ApproxOracle(const Network& original, const Network& approx,
               size_t bdd_budget = 1u << 18);
  ~ApproxOracle();

  /// Is PO `po` of the approx network a correct `direction`-approximation?
  bool verify(int po, ApproxDirection direction);

  /// Fraction of the protected minterm space covered (paper Sec. 2):
  /// |G|/|F| for 1-approximations, |~G|/|~F| for 0-approximations.
  double approximation_pct(int po, ApproxDirection direction,
                           int fallback_words = 512);

  /// Brings the oracle up to date after the approx network was mutated.
  /// Re-derives only the cones downstream of the mutated nodes (O(changed
  /// cone) instead of O(both networks)); structural mutations
  /// (Network::structure_version()) force a full rebuild.
  void refresh_approx();

  /// When the last verify() returned false via the SAT path, this holds the
  /// violating PI assignment (one value per PI). Empty otherwise.
  const std::vector<uint8_t>& last_counterexample() const {
    return last_cex_;
  }

  /// Conflict cap per SAT query; exceeding it reports "not verified"
  /// (sound: callers escalate toward exactness, which the structural
  /// fast path then verifies without a solver). < 0 disables the cap.
  /// A query that exhausted the cap is not re-solved while the PO, the
  /// direction, the approx network's version and the cap are unchanged; a
  /// repeat reports "not verified" with no counterexample, even though a
  /// retry on the solver's learned clauses might have settled it.
  void set_sat_conflict_budget(int64_t budget) {
    sat_conflict_budget_ = budget;
  }

  /// True while BDD-based answers are available (diagnostics).
  bool using_bdds() const { return bdd_ok_; }

  /// Workload counters (monotone over the oracle's lifetime).
  struct Stats {
    uint64_t structural_hits = 0;  ///< verify() answered by cone identity
    uint64_t bdd_queries = 0;      ///< verify() answered by BDD implication
    uint64_t sat_queries = 0;      ///< verify() answered by the SAT solver
    uint64_t incremental_refreshes = 0;
    uint64_t full_rebuilds = 0;
    uint64_t bdd_nodes_rebuilt = 0;    ///< node BDDs re-derived incrementally
    uint64_t sat_nodes_reencoded = 0;  ///< node CNFs re-encoded incrementally
    uint64_t gc_runs = 0;              ///< BDD mark-and-sweep collections
  };
  const Stats& oracle_stats() const { return stats_; }

  /// Identity of the SAT fallback instance (nullptr while none exists).
  /// The incremental path keeps this stable across refresh_approx() —
  /// asserted by tests; a change means learned clauses were thrown away.
  const void* sat_identity() const;

  /// Direct access to the per-node global BDDs (valid when using_bdds()).
  /// Only nodes inside some PO cone carry a meaningful ref (kNoBddRef
  /// otherwise). Used by the repair stage's source analysis.
  BddManager& manager() { return *mgr_; }
  BddManager::Ref orig_ref(NodeId id) const { return orig_refs_[id]; }
  BddManager::Ref approx_ref(NodeId id) const { return approx_refs_[id]; }

 private:
  void build();
  void build_bdds();
  void ensure_sat();
  bool cone_structurally_identical(int po) const;
  void ensure_structure_caches();
  std::vector<NodeId> fanout_closure(const std::vector<NodeId>& dirty);
  void refresh_bdds(const std::vector<NodeId>& affected);
  void refresh_sat(const std::vector<NodeId>& affected);
  void maybe_collect();

  const Network& original_;
  const Network& approx_;
  size_t budget_;
  std::optional<BddManager> mgr_;
  std::vector<BddManager::Ref> orig_refs_;
  std::vector<BddManager::Ref> approx_refs_;
  bool bdd_ok_ = false;
  bool bdd_hostile_ = false;  // a build overflowed: skip future BDD attempts
  // Where the last failed build overflowed: on the original's cones, or on
  // the approx side at approx version hostile_version_.
  bool hostile_on_original_ = false;
  uint64_t hostile_version_ = 0;
  int64_t sat_conflict_budget_ = 50000;
  std::vector<uint8_t> last_cex_;
  // The last SAT query that exhausted its conflict budget, keyed by the
  // question and the budget; repeating it answers "not verified" unsolved.
  struct UnknownQuery {
    int po = -1;
    ApproxDirection direction = ApproxDirection::kZeroApprox;
    uint64_t approx_version = 0;
    int64_t conflict_budget = 0;
    bool operator==(const UnknownQuery&) const = default;
  };
  std::optional<UnknownQuery> last_unknown_;

  // Incremental bookkeeping: the approx network version the BDD refs
  // reflect, plus shared topology views (the approx side is refreshed per
  // structure version; the original never mutates) and reusable cone
  // scratch so refresh/verify traversals allocate no adjacency per call.
  uint64_t approx_synced_version_ = 0;
  std::shared_ptr<const TopologyView> approx_view_;
  std::shared_ptr<const TopologyView> orig_view_;
  mutable ConeScratch cone_scratch_;
  mutable std::vector<NodeId> cone_buf_;
  size_t nodes_after_build_ = 0;  // GC trigger baseline

  Stats stats_;
  std::unique_ptr<ApproxOracleState> state_;
};

/// One-shot convenience wrappers (fresh oracle per call).
bool verify_po_approximation(const Network& original, const Network& approx,
                             int po, ApproxDirection direction,
                             size_t bdd_budget = 1u << 18);

double approximation_percentage(const Network& original,
                                const Network& approx, int po,
                                ApproxDirection direction,
                                size_t bdd_budget = 1u << 18,
                                int fallback_words = 512);

/// Input-weighted approximation percentage (paper Sec. 2: "each minterm
/// covered by the approximate function must be appropriately weighted by
/// its probability of occurrence"). `pi_probs[i]` is P[PI i = 1]; the
/// estimate samples `words`*64 vectors from that product distribution.
double weighted_approximation_percentage(const Network& original,
                                         const Network& approx, int po,
                                         ApproxDirection direction,
                                         const std::vector<double>& pi_probs,
                                         int words = 1024,
                                         uint64_t seed = 0xB1A5);

}  // namespace apx
