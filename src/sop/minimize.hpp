// Espresso-style heuristic two-level minimization: EXPAND against the
// off-set, IRREDUNDANT via tautology checking, and one REDUCE refinement.
// Used by the quick-synthesis/mapping flow and by the approximation stage
// when rewriting node SOPs (paper Sec. 2.2 "Approximation of SOPs").
#pragma once

#include "sop/sop.hpp"

namespace apx {

/// Expands each cube of `cover` to a prime of (cover + dc) by removing
/// literals while staying disjoint from `offset`. Returns an SCC-free cover.
Sop expand_against_offset(const Sop& cover, const Sop& offset);

/// Removes cubes that are covered by (rest of cover + dc).
Sop irredundant(const Sop& cover, const Sop& dc);

/// Heuristic minimization of the incompletely specified function
/// (onset, dc). The result covers onset and is contained in onset + dc.
Sop minimize(const Sop& onset, const Sop& dc);

/// Convenience: minimize a completely specified cover.
inline Sop minimize(const Sop& onset) {
  return minimize(onset, Sop::zero(onset.num_vars()));
}

}  // namespace apx
