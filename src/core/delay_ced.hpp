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
//
// The measurement is an ordinary single-stuck-at fault campaign
// (sim/fault_engine.hpp): a slow-to-rise (slow-to-fall) fault is a
// stuck-at-0 (stuck-at-1) counted only on the vectors it launches. The
// launch vector of capture vector k is vector k-1 of the same pattern batch,
// so one golden simulation serves both patterns of every pair, and each
// (launch, capture) pair is still two independent uniform vectors.
#pragma once

#include <cstdint>

#include "core/ced.hpp"
#include "sim/fault_engine.hpp"

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

/// Word `w` of the vectors on which the transition fault injected as the
/// stuck-at `site` is launched: the site rises (stuck-at-0, slow-to-rise)
/// or falls (stuck-at-1, slow-to-fall) from vector k-1 to vector k of the
/// view's batch, with vector 0 launched from the batch's last vector.
uint64_t launched_vectors(const FaultView& view, const FaultSite& site,
                          int w);

/// Transition-fault campaign over the live functional gates (and, with
/// include_pi_stems, the PI stems that have fanout) of a CED design; runs =
/// num_fault_samples * words_per_fault * 64. A campaign with samples to run
/// throws std::invalid_argument for a non-positive words_per_fault.
CoverageResult evaluate_delay_fault_coverage(
    const CedDesign& ced, const DelayCoverageOptions& options = {});

}  // namespace apx
