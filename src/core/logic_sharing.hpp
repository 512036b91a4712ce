// Logic sharing between the original circuit and the check-symbol generator
// (paper Sec. 3.1): functionally equivalent check-generator nodes are merged
// onto original-circuit nodes, trading a little CED coverage (faults in
// shared logic affect both circuits identically and become undetectable)
// for lower area/power overhead. This makes the CED intrusive.
#pragma once

#include "core/ced.hpp"

namespace apx {

struct SharingOptions {
  /// Criticality budget (paper Sec. 3.1: only *non-critical* nodes are
  /// shared). A merged node's faults become undetectable, so candidates
  /// are ranked by their error contribution and merged cheapest-first
  /// until the merged nodes account for at most this fraction of the
  /// functional circuit's total error mass. 1.0 merges everything.
  double max_error_mass = 0.10;
};

struct SharingReport {
  int merged_nodes = 0;
  int checkgen_area_before = 0;
  int checkgen_area_after = 0;
};

/// Merges check-generator nodes that are functionally equivalent to
/// original-circuit nodes. Updates `ced` in place (design, node lists and
/// error pair are remapped after cleanup).
SharingReport apply_logic_sharing(CedDesign& ced,
                                  const SharingOptions& options = {});

}  // namespace apx
