// Output checks for the benchmark, independent of the ApproxOracle that
// produced each result: random-vector simulation of the assembled CED
// design and, where it is affordable, a fresh SAT miter per output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ced.hpp"
#include "network/network.hpp"

namespace cedbench {

struct Verdict {
  bool ok = true;
  std::string reason;  // first failed property, empty when ok
};

/// Certifies one CED design built from `input` (the network the flow was
/// given), its mapped check-symbol generator `checkgen` and the protected
/// directions. Over 256 x 64 random vectors drawn from `seed`:
///   * the design's functional outputs equal the input network's,
///   * the fault-free design never raises the alarm (the rails differ),
///   * every output's implication holds (0-approx: Y=1 => X=1,
///     1-approx: X=1 => Y=1).
/// With `sat_miter`, each output's implication is also re-proved by a
/// fresh check_po_implication miter; an undecided miter fails the check.
Verdict certify_design(const apx::Network& input, const apx::Network& checkgen,
                       const apx::CedDesign& ced,
                       const std::vector<apx::ApproxDirection>& directions,
                       bool sat_miter, uint64_t seed);

/// A copy of `net` with output `po` inverted: the deliberately broken
/// check-symbol generator of the self-test.
apx::Network invert_po(const apx::Network& net, int po);

}  // namespace cedbench
