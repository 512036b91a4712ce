// Partial-duplication CED baseline (Mohanram & Touba, ITC 2003 [10] in the
// paper): duplicate the output cones that contribute most to the soft-error
// rate and compare the duplicated outputs with equality checkers. The paper
// uses it as the intrusive state-of-the-art whose coverage is matched at
// lower cost by approximate-logic CED (Table 2).
#pragma once

#include <vector>

#include "core/ced.hpp"
#include "network/network.hpp"

namespace apx {

struct PartialDuplicationOptions {
  /// Fault-injection budget for ranking outputs / estimating coverage.
  int num_fault_samples = 1000;
  int words_per_fault = 4;
  /// Fault model driving both selection campaigns (output ranking and
  /// prefix coverage). kSingleStuckAt draws one of the 2N (logic node,
  /// polarity) pairs; the other models use the engine's stock samplers
  /// over the logic nodes.
  FaultModel model = FaultModel::kSingleStuckAt;
  /// Simultaneous stuck-at sites per sample under kMultiStuckAt.
  int sites_per_fault = 2;
  /// Forced vector-window length under kTransientBurst.
  int burst_vectors = 16;
  /// Fault samples amortizing one shared golden simulation in the
  /// FaultSimEngine (see src/sim/fault_engine.hpp).
  int faults_per_batch = 64;
  uint64_t seed = 0xD0B1;
};

struct PartialDuplicationResult {
  CedDesign ced;
  /// Indices of duplicated POs, in selection order.
  std::vector<int> duplicated_pos;
  /// Coverage estimate (fraction of erroneous runs visible at duplicated
  /// outputs) used during selection.
  double estimated_coverage = 0.0;
};

/// Duplicates output cones, most error-prone first, until the estimated
/// coverage reaches `target_coverage` (or all POs are duplicated).
PartialDuplicationResult build_partial_duplication(
    const Network& mapped, double target_coverage,
    const PartialDuplicationOptions& options = {});

}  // namespace apx
