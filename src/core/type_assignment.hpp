// Type assignment (paper Sec. 2.1.1): walking the network in reverse
// topological order, every node is assigned one of the types 0 / 1 / EX / DC
// from the types its fanouts requested, and then requests types for its own
// fanins based on their local observabilities.
#pragma once

#include <vector>

#include "core/approx_types.hpp"
#include "core/observability.hpp"
#include "network/network.hpp"

namespace apx {

struct TypeAssignmentOptions {
  /// A fanin whose total observability is below this fraction of the
  /// node's maximum fanin observability is requested type DC (rule i).
  double dc_fraction = 0.1;
  /// If max(obs0, obs1) / min(obs0, obs1) exceeds this, the dominant phase
  /// is requested (rule ii); otherwise EX is requested (rule iii).
  double phase_ratio = 2.0;
  /// Simulation words used for the observability analysis (its patterns
  /// come from ObservabilityAnalysis's default seed).
  int sim_words = 64;

  /// When true, a type-EX node requests type EX for every fanin it depends
  /// on. That is the premise under which the paper's composition theorem
  /// makes exact cube selection a construction-level guarantee — but EX
  /// floods transitively and suppresses most approximation, so the default
  /// follows the paper's prose (observability-based requests from every
  /// node) and relies on the verification + repair stage for correctness.
  bool strict_ex_requests = false;
};

struct TypeAssignment {
  /// Assigned type per node (indexed by NodeId). PIs and constants carry
  /// kEx (they are never modified).
  std::vector<NodeType> types;

  NodeType of(NodeId id) const { return types[id]; }
  int count(NodeType t) const;
};

/// Assigns types given the desired approximation direction of each PO.
TypeAssignment assign_types(const Network& net,
                            const std::vector<ApproxDirection>& directions,
                            const TypeAssignmentOptions& options = {});

/// Variant reusing an existing observability analysis.
TypeAssignment assign_types(const Network& net,
                            const std::vector<ApproxDirection>& directions,
                            const ObservabilityAnalysis& obs,
                            const TypeAssignmentOptions& options);

}  // namespace apx
