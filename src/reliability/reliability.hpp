// Reliability analysis: estimates, for every primary output, the rates of
// 0->1 and 1->0 errors under the single-stuck-at fault model with uniform
// gate failure probability and uniformly random inputs.
//
// The paper (Sec. 3) uses the analytic observability-based method of
// Choudhury & Mohanram (DATE 2007) [14]; this module estimates the same
// per-output quantities by Monte-Carlo fault injection (see DESIGN.md
// substitutions). Downstream, only the dominant error direction and the
// skew magnitude are consumed when choosing the 0-/1-approximation per
// output and when computing the maximum attainable CED coverage.
#pragma once

#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "sim/fault_engine.hpp"
#include "sim/simulator.hpp"

namespace apx {

/// Direction of the dominant error at an output, hence the approximation
/// type to synthesize for it (paper Sec. 3: 0->1 dominant -> 0-approximate
/// check function, 1->0 dominant -> 1-approximate).
enum class ApproxDirection : uint8_t {
  kZeroApprox,  ///< check function X with X=0 => Y=0; detects 0->1 errors
  kOneApprox,   ///< check function X with X=1 => Y=1; detects 1->0 errors
};

struct OutputErrorProfile {
  /// P[output erroneous 0->1 | run], over (fault, vector) runs.
  double rate_0_to_1 = 0.0;
  /// P[output erroneous 1->0 | run].
  double rate_1_to_0 = 0.0;

  double total_rate() const { return rate_0_to_1 + rate_1_to_0; }
  ApproxDirection dominant() const {
    return rate_0_to_1 >= rate_1_to_0 ? ApproxDirection::kZeroApprox
                                      : ApproxDirection::kOneApprox;
  }
  /// Fraction of this output's errors that the dominant direction covers.
  double skew() const {
    double t = total_rate();
    if (t <= 0.0) return 1.0;
    return std::max(rate_0_to_1, rate_1_to_0) / t;
  }
};

struct ReliabilityReport {
  std::vector<OutputErrorProfile> outputs;  // indexed by PO
  /// P[some PO erroneous | run] — the denominator of CED coverage.
  double any_output_error_rate = 0.0;
  /// P[some PO erroneous in its dominant direction | run] /
  /// P[some PO erroneous | run] — the paper's "Max. CED coverage" bound
  /// when every output is protected in its dominant direction.
  double max_ced_coverage = 0.0;
  int64_t runs = 0;
};

/// Campaign knobs (sim/fault_engine.hpp) at their defaults; total runs =
/// num_fault_samples * vectors(). Under kSingleStuckAt the campaign draws
/// one of the 2N (logic node, polarity) pairs; the other models use the
/// engine's stock samplers over the logic nodes.
struct ReliabilityOptions : CampaignOptions {
  /// Ignored; kept only because cedbench sets it; goes with the next
  /// change to that benchmark. Workers follow apx::thread_count().
  int num_threads = 0;
};

/// Runs Monte-Carlo fault injection on `net` and aggregates per-output
/// error-direction statistics. One campaign: every sampled fault is
/// simulated once (docs/ALGORITHM.md §1).
ReliabilityReport analyze_reliability(const Network& net,
                                      const ReliabilityOptions& options = {});

/// Chooses the approximation direction for every PO from a report.
std::vector<ApproxDirection> choose_directions(const ReliabilityReport& r);

}  // namespace apx
