#include "core/type_assignment.hpp"

#include <algorithm>
#include <stdexcept>

namespace apx {

int TypeAssignment::count(NodeType t) const {
  int c = 0;
  for (NodeType x : types) {
    if (x == t) ++c;
  }
  return c;
}

TypeAssignment assign_types(const Network& net,
                            const std::vector<ApproxDirection>& directions,
                            const TypeAssignmentOptions& options) {
  ObservabilityAnalysis obs(net, options.sim_words);
  return assign_types(net, directions, obs, options);
}

TypeAssignment assign_types(const Network& net,
                            const std::vector<ApproxDirection>& directions,
                            const ObservabilityAnalysis& obs,
                            const TypeAssignmentOptions& options) {
  if (directions.size() != static_cast<size_t>(net.num_pos())) {
    throw std::logic_error("assign_types: one direction per PO required");
  }
  TypeAssignment result;
  result.types.assign(net.num_nodes(), NodeType::kEx);

  // Requests accumulated per node, as counts per type.
  struct Requests {
    int zero = 0, one = 0, ex = 0, dc = 0;
    int total() const { return zero + one + ex + dc; }
  };
  std::vector<Requests> requests(net.num_nodes());

  // Initialization: the PO drivers receive the desired output types.
  for (int o = 0; o < net.num_pos(); ++o) {
    NodeId drv = net.po(o).driver;
    if (type_for_direction(directions[o]) == NodeType::kZero) {
      ++requests[drv].zero;
    } else {
      ++requests[drv].one;
    }
  }

  std::vector<NodeId> order = net.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId id = *it;
    const Node& n = net.node(id);
    const Requests& r = requests[id];

    // Assignment rules (paper Sec. 2.1.1). Nodes never requested by anyone
    // (dangling) default to DC.
    NodeType type;
    if (r.total() == 0) {
      type = NodeType::kDc;
    } else if (r.ex > 0) {
      type = NodeType::kEx;
    } else if (r.zero == 0 && r.one == 0) {
      type = NodeType::kDc;
    } else if (r.one == 0) {
      type = NodeType::kZero;  // all requests 0 or DC
    } else if (r.zero == 0) {
      type = NodeType::kOne;  // all requests 1 or DC
    } else {
      type = NodeType::kEx;
    }
    if (n.kind != NodeKind::kLogic) {
      // PIs/constants are structural; they are exact by definition.
      result.types[id] = NodeType::kEx;
      continue;
    }
    result.types[id] = type;

    // Request types for fanins from local observabilities.
    const auto& fanin_obs = obs.node_obs(id);
    double max_total = 0.0;
    for (const auto& fo : fanin_obs) max_total = std::max(max_total, fo.total());
    // Does the node's SOP actually bind fanin k in some cube?
    auto fanin_used = [&](size_t k) {
      for (const Cube& c : n.sop.cubes()) {
        if (c.get(static_cast<int>(k)) != LitCode::kFree) return true;
      }
      return false;
    };

    for (size_t k = 0; k < n.fanins.size(); ++k) {
      const FaninObservability& fo = fanin_obs[k];
      NodeId f = n.fanins[k];
      // A DC node constrains nothing downstream of it; its fanins also see
      // no requirement from this path.
      if (type == NodeType::kDc) {
        ++requests[f].dc;
        continue;
      }
      if (!fanin_used(k)) {
        ++requests[f].dc;  // functionally irrelevant fanin
        continue;
      }
      // Under strict_ex_requests an EX node pins fanins it is sensitive to
      // to EX (the premise of the paper's composition theorem; see
      // DESIGN.md) — except barely-observable ones, which rule (i) still
      // sends to DC, damping the transitive EX flood. The default instead
      // applies the plain observability rules for EX nodes too, as the
      // paper's prose describes.
      if (type == NodeType::kEx && options.strict_ex_requests) {
        if (max_total > 0.0 && fo.total() < options.dc_fraction * max_total) {
          ++requests[f].dc;
        } else {
          ++requests[f].ex;
        }
        continue;
      }
      if (max_total > 0.0 && fo.total() < options.dc_fraction * max_total) {
        ++requests[f].dc;  // rule (i): barely observable fanin
        continue;
      }
      double lo = std::min(fo.obs0, fo.obs1);
      double hi = std::max(fo.obs0, fo.obs1);
      if (lo * options.phase_ratio < hi) {
        // rule (ii): strong disparity -> dominant phase.
        if (fo.obs0 > fo.obs1) {
          ++requests[f].zero;
        } else {
          ++requests[f].one;
        }
      } else {
        ++requests[f].ex;  // rule (iii): comparable observabilities
      }
    }
  }
  return result;
}

}  // namespace apx
