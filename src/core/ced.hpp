// CED construction and evaluation (paper Sec. 3, Fig. 2): combines the
// functional circuit, a check-symbol generator (the approximate logic
// circuit or a baseline predictor), per-output checkers, and a two-rail
// consolidation tree into one gate-level design, then measures CED coverage
// by random fault injection and area/power overheads by gate counting and
// switching activity.
#pragma once

#include <cstdint>
#include <vector>

#include "core/approx_types.hpp"
#include "core/checker.hpp"
#include "network/network.hpp"
#include "sim/fault_engine.hpp"

namespace apx {

/// A complete CED-protected design with bookkeeping for measurement.
struct CedDesign {
  Network design;

  /// Gate-level fault sites of the functional circuit (ids in `design`).
  std::vector<NodeId> functional_nodes;
  /// Drivers of the functional POs inside `design` (order = original POs).
  std::vector<NodeId> functional_outputs;
  /// Nodes added for the check-symbol generator.
  std::vector<NodeId> checkgen_nodes;
  /// Nodes added for checkers + two-rail tree.
  std::vector<NodeId> checker_nodes;
  /// Final two-rail pair; an error is signalled when the rails agree.
  TwoRail error_pair;

  int functional_area() const { return static_cast<int>(functional_nodes.size()); }
  int overhead_area() const {
    return static_cast<int>(checkgen_nodes.size() + checker_nodes.size());
  }
};

/// Builds the Fig. 2 architecture: `original` is the (mapped) functional
/// circuit, `checkgen` the (mapped) approximate circuit with one PO per
/// original PO, and `directions[o]` the protected direction of output o.
/// Checker cells are emitted as 1-2 input gates so the whole design is
/// gate-level.
CedDesign build_ced_design(const Network& original, const Network& checkgen,
                           const std::vector<ApproxDirection>& directions);

/// Duplication-style CED: equality checkers on the POs listed in
/// `checked_pos` between the functional circuit and `predictor` (which must
/// have those POs). Used by the partial-duplication baseline.
CedDesign build_duplication_ced(const Network& original,
                                const Network& predictor,
                                const std::vector<int>& checked_pos);

/// CED coverage by Monte-Carlo single-stuck-at fault injection over the
/// functional gates (paper Sec. 4 fault model).
struct CoverageResult {
  int64_t runs = 0;
  int64_t erroneous = 0;  ///< runs where some functional PO differs
  int64_t detected = 0;   ///< erroneous runs flagged by the error pair

  /// Detected fraction of erroneous runs, clamped to [0, 1]. Campaigns on
  /// trivial designs (no logic, zero samples) legitimately record zero
  /// erroneous runs — the result must stay 0, never NaN.
  double coverage() const {
    if (erroneous <= 0 || detected <= 0) return 0.0;
    const double c =
        static_cast<double>(detected) / static_cast<double>(erroneous);
    return c < 1.0 ? c : 1.0;
  }
};

struct CoverageOptions {
  int num_fault_samples = 2000;
  int words_per_fault = 4;
  /// Pattern vectors per fault. 0 (default) = words_per_fault * 64; a
  /// positive value overrides words_per_fault and need not be a multiple
  /// of 64 — padding bits of the final partial word are masked out of both
  /// the engine's detection decisions and the coverage accounting.
  int vectors_per_fault = 0;
  /// Fault model injected over the functional gates through the engine's
  /// stock samplers (FaultSimEngine::make_sampler), with the two knobs
  /// below.
  FaultModel model = FaultModel::kSingleStuckAt;
  /// Simultaneous stuck-at sites per sample under kMultiStuckAt.
  int sites_per_fault = 2;
  /// Forced vector-window length under kTransientBurst.
  int burst_vectors = 16;
  /// Fault samples amortizing one shared golden simulation in the
  /// FaultSimEngine (see src/sim/fault_engine.hpp).
  int faults_per_batch = 64;
  /// Ignored; kept only because cedbench sets it; goes with the next
  /// change to that benchmark. Workers follow apx::thread_count().
  int num_threads = 0;
  uint64_t seed = 0xCED;
};

CoverageResult evaluate_ced_coverage(const CedDesign& ced,
                                     const CoverageOptions& options = {});

/// Area and switching-activity ("power") overheads of the CED logic
/// relative to the functional circuit (paper Table 2 metrics).
///
/// The headline percentages cover the check-symbol generator only, matching
/// the paper's accounting (its per-output checkers and two-rail tree are
/// common to every compared scheme; e.g. frg2's 139 checker cells alone
/// would exceed the 30% the paper reports). The checker cost is still
/// measured and exposed via the *_with_checkers variants.
struct OverheadReport {
  int functional_area = 0;
  int checkgen_area = 0;
  int checker_area = 0;
  double functional_activity = 0.0;
  double checkgen_activity = 0.0;
  double checker_activity = 0.0;

  int overhead_area = 0;             ///< checkgen + checkers (gates)
  double overhead_activity = 0.0;    ///< checkgen + checkers (activity)

  // All percentage helpers return 0 (never NaN/inf) on degenerate
  // denominators — a wire-only functional circuit has zero mapped area
  // and zero switching activity, and `apxced ced` prints these directly.
  double area_overhead_pct() const {
    return functional_area > 0 ? 100.0 * checkgen_area / functional_area : 0.0;
  }
  double power_overhead_pct() const {
    return functional_activity > 0.0
               ? 100.0 * checkgen_activity / functional_activity
               : 0.0;
  }
  double area_overhead_with_checkers_pct() const {
    return functional_area > 0 ? 100.0 * overhead_area / functional_area : 0.0;
  }
  double power_overhead_with_checkers_pct() const {
    return functional_activity > 0.0
               ? 100.0 * overhead_activity / functional_activity
               : 0.0;
  }
};

OverheadReport measure_overheads(const CedDesign& ced, int sim_words = 128,
                                 uint64_t seed = 0x9AC7);

}  // namespace apx
