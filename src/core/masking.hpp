// Error masking with approximate logic circuits (the paper's future-work
// item (ii): "combined error detection and error masking to enhance circuit
// reliability").
//
// The approximation invariant enables forward error masking, not just
// detection: if X is a 0-approximation of Y (X=0 => Y=0), then the corrected
// output Y* = Y AND X equals Y in fault-free operation, and any 0->1 error
// at Y is silently masked whenever X=0. Dually, a 1-approximation masks
// 1->0 errors with Y* = Y OR X. Masking composes with detection: the same
// checkers still flag the error while the corrected output hides it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/approx_types.hpp"
#include "core/ced.hpp"
#include "network/network.hpp"

namespace apx {

/// A CED design augmented with corrected (masked) outputs.
struct MaskingDesign {
  CedDesign ced;
  /// Drivers of the corrected outputs Y* (same order as the original POs);
  /// these are also POs of ced.design named "<po>_masked".
  std::vector<NodeId> masked_outputs;
  /// Gates added for the masking layer (one AND/OR per output).
  std::vector<NodeId> masking_nodes;
};

/// Builds the Fig. 2 CED architecture plus the masking layer.
MaskingDesign build_masking_design(const Network& original,
                                   const Network& checkgen,
                                   const std::vector<ApproxDirection>& dirs);

/// Fault-injection comparison of raw vs masked output error rates.
struct MaskingResult {
  int64_t runs = 0;
  int64_t raw_errors = 0;     ///< runs where some raw PO is wrong
  int64_t masked_errors = 0;  ///< runs where some corrected PO is wrong

  double raw_error_rate() const {
    return runs > 0 ? static_cast<double>(raw_errors) / runs : 0.0;
  }
  double masked_error_rate() const {
    return runs > 0 ? static_cast<double>(masked_errors) / runs : 0.0;
  }
  /// Fraction of erroneous runs the masking layer corrects.
  double masking_effectiveness() const {
    return raw_errors > 0
               ? 1.0 - static_cast<double>(masked_errors) / raw_errors
               : 0.0;
  }
};

/// Random single-stuck-at injection over the functional gates, one fault
/// per sample on its own `words_per_fault` random pattern words. Reads
/// num_fault_samples, words_per_fault and seed; throws
/// std::invalid_argument, naming the field, for a non-positive
/// words_per_fault and for any other field it would ignore: a nonzero
/// vectors_per_fault, a model other than kSingleStuckAt, or
/// sites_per_fault, burst_vectors or faults_per_batch off their defaults.
MaskingResult evaluate_masking(const MaskingDesign& design,
                               const CoverageOptions& options = {});

}  // namespace apx
