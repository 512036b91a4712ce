// Light technology-independent optimization ("quick synthesis", paper
// Sec. 3): constant sweeping, buffer/inverter collapsing, per-node SOP
// minimization, and elimination of trivially absorbable nodes. Applied
// before mapping and before approximate synthesis.
#pragma once

#include "network/network.hpp"

namespace apx {

/// Returns an optimized copy of `net` (same PIs/POs).
Network optimize(const Network& net);

/// Logic-node count at or above which quick_synthesis switches from the
/// SOP-level optimize() pass to the AIG substrate (structural hashing +
/// NPN-canonical cut rewriting). Every circuit in the committed benchmark
/// suite sits below this, so their synthesis results — and the bench
/// artifacts derived from them — are bit-identical to the pre-AIG flow;
/// the generated 10k+-gate circuits sit above it and scale.
inline constexpr int kAigQuickSynthesisThreshold = 5000;

/// Quick-synthesis preset used before reliability analysis and mapping.
/// Dispatches on `aig_threshold` (see kAigQuickSynthesisThreshold; pass
/// 0 to force the AIG path, a negative value to disable it).
Network quick_synthesis(const Network& net);
Network quick_synthesis(const Network& net, int aig_threshold);

/// Drops fanins (and the matching SOP variables) that no cube of a node
/// binds, across the whole network, so cleanup() can remove logic that only
/// fed now-unused literals. Mutates `net` in place.
void compact_unused_fanins(Network& net);

/// Algebraic resubstitution: for each node f, looks for an existing node d
/// (with fanins drawn from f's fanins, at a strictly smaller level) whose
/// SOP algebraically divides f's; when the rewrite f = q*d + r saves
/// literals, f's SOP is re-expressed over {fanins, d}. Returns the number
/// of rewrites performed. Mutates `net` in place; functions are preserved.
int resubstitute(Network& net);

}  // namespace apx
