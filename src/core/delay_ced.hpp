// CED coverage against delay (transition) faults — the paper's future-work
// item (i). The same approximate check-symbol generator and checkers are
// reused unchanged: a transition fault manifests at capture time as a
// unidirectional error at the functional outputs, which the 0/1-approximate
// checkers flag exactly as they do for stuck-at faults.
//
// A slow-to-rise (slow-to-fall) fault at a node delays its 0->1 (1->0)
// transition past the clock edge. Under the two-pattern model the captured
// value at the site is x2 AND x1 (x2 OR x1) for launch value x1 and capture
// value x2, and the stale value propagates through the fanout cone. Both
// PI fanout stems and gate outputs are fault sites.
#pragma once

#include "core/ced.hpp"

namespace apx {

struct DelayCoverageOptions {
  int num_fault_samples = 1000;
  int words_per_fault = 4;
  uint64_t seed = 0xDE1A;
  /// Also sample slow transitions on the PI fanout stems (a real defect
  /// site on any speed-path). In an exact-duplicate CED a PI-stem fault is
  /// common mode — the functional circuit and the check-symbol generator
  /// see the same stale input, so such faults are structurally undetectable
  /// there; set false to measure gate-level coverage only.
  bool include_pi_stems = true;
};

/// Monte-Carlo transition-fault injection over the functional gates of a
/// CED design, using random launch/capture pattern pairs. Throws
/// std::invalid_argument for a non-positive words_per_fault.
CoverageResult evaluate_delay_fault_coverage(
    const CedDesign& ced, const DelayCoverageOptions& options = {});

}  // namespace apx
