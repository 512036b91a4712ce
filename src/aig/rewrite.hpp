// DAG-aware cut rewriting against a precomputed optimal-network database,
// after Mishchenko et al. (DAG-aware AIG rewriting): for every AND node,
// enumerate priority 4-cuts, NPN-canonicalize each cut function, and look
// up a small pre-optimized AIG implementing its class. A global cover then
// picks, per node, the cut whose database implementation plus (shared)
// leaf costs is cheapest under area flow, and only the chosen cover is
// materialized into a fresh structurally-hashed AIG — so savings from
// replacing whole multi-node cones are captured, not just single nodes.
//
// Database construction is self-contained: for each of the 222 NPN classes
// the builder synthesizes candidate implementations (factored ISOP,
// complemented ISOP of the complement, memoized Shannon decomposition)
// into one shared strashing arena, keeps the candidate with the smallest
// reachable AND cone, and validates every stored network by exhaustive
// truth-table simulation before it can ever be instantiated.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cuts.hpp"

namespace apx::aig {

/// Optimal-network database indexed by NPN-canonical truth table.
///
/// Entries are straight-line AND programs over "database literals":
/// node 0 is constant false, nodes 1..4 are input slots 0..3, node 5+i is
/// the i-th instruction; a literal is 2*node + complement as usual.
class RewriteDb {
 public:
  struct Entry {
    std::vector<std::array<uint16_t, 2>> ands;  ///< fanin literal pairs
    uint16_t out = 0;                           ///< output literal
  };

  static const RewriteDb& instance();

  bool has(uint16_t canon) const { return index_[canon] >= 0; }
  const Entry& entry(uint16_t canon) const {
    return entries_[static_cast<size_t>(index_[canon])];
  }
  /// AND-node count of the stored implementation.
  int cost(uint16_t canon) const {
    return static_cast<int>(entry(canon).ands.size());
  }

  /// Materializes `entry(canon)` into `dst`, feeding input slot i with
  /// `slot_lits[i]`. Returns the output literal in `dst`.
  static Lit instantiate(Aig* dst, const Entry& e, const Lit slot_lits[4]);

 private:
  RewriteDb();

  std::vector<Entry> entries_;
  std::vector<int32_t> index_;  ///< canon -> entries_ index, -1 if not canon
};

struct RewriteStats {
  int passes = 0;
  int ands_before = 0;  ///< reachable ANDs entering the first pass
  int ands_after = 0;   ///< reachable ANDs after the last accepted pass
  size_t cuts_enumerated = 0;
};

/// Rewrites `src` into a (reachable-)AND-minimized equivalent AIG. PI/PO
/// count, names, and order are preserved. Never returns a worse graph:
/// each pass is guarded and the source is kept when a pass does not help.
Aig rewrite(const Aig& src, RewriteStats* stats = nullptr);

}  // namespace apx::aig
