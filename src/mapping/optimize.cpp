#include "mapping/optimize.hpp"

#include <unordered_map>

#include "aig/convert.hpp"
#include "network/topology_view.hpp"
#include "sop/algebraic.hpp"
#include "sop/minimize.hpp"

namespace apx {
namespace {

// Drops SOP variables no cube binds, compacting the fanin list to match.
void compact_node(std::vector<NodeId>& fanins, Sop& sop) {
  const int n = sop.num_vars();
  std::vector<bool> used(n, false);
  for (const Cube& c : sop.cubes()) {
    for (int v = 0; v < n; ++v) {
      if (c.get(v) != LitCode::kFree) used[v] = true;
    }
  }
  std::vector<int> new_index(n, -1);
  std::vector<NodeId> new_fanins;
  for (int v = 0; v < n; ++v) {
    if (used[v]) {
      new_index[v] = static_cast<int>(new_fanins.size());
      new_fanins.push_back(fanins[v]);
    }
  }
  if (new_fanins.size() == fanins.size()) return;
  Sop compacted(static_cast<int>(new_fanins.size()));
  for (const Cube& c : sop.cubes()) {
    Cube nc = Cube::full(compacted.num_vars());
    for (int v = 0; v < n; ++v) {
      if (new_index[v] >= 0) nc.set(new_index[v], c.get(v));
    }
    compacted.add_cube(nc);
  }
  fanins = std::move(new_fanins);
  sop = std::move(compacted);
}

// Is the node a buffer (sop == "1") or an inverter (sop == "0")?
bool is_buffer_sop(const Sop& sop) {
  return sop.num_vars() == 1 && sop.num_cubes() == 1 &&
         sop.cube(0).get(0) == LitCode::kPos;
}
bool is_inverter_sop(const Sop& sop) {
  return sop.num_vars() == 1 && sop.num_cubes() == 1 &&
         sop.cube(0).get(0) == LitCode::kNeg;
}

struct StrashKey {
  std::vector<NodeId> fanins;
  std::string sop_text;
  bool operator==(const StrashKey& o) const {
    return fanins == o.fanins && sop_text == o.sop_text;
  }
};
struct StrashHash {
  size_t operator()(const StrashKey& k) const {
    size_t h = std::hash<std::string>()(k.sop_text);
    for (NodeId f : k.fanins) h = h * 0x9E3779B9u + static_cast<size_t>(f);
    return h;
  }
};

}  // namespace

Network optimize(const Network& net) {
  Network result;
  result.set_name(net.name());
  // Resolution of each original node into the result network. A node maps
  // to a result node id; constants and aliases resolve transparently.
  std::vector<NodeId> map(net.num_nodes(), kNullNode);
  NodeId const0 = kNullNode, const1 = kNullNode;
  auto get_const = [&](bool v) {
    NodeId& c = v ? const1 : const0;
    if (c == kNullNode) c = result.add_const(v);
    return c;
  };
  auto kind_of = [&](NodeId rid) { return result.node(rid).kind; };

  std::unordered_map<StrashKey, NodeId, StrashHash> strash;

  for (NodeId pi : net.pis()) map[pi] = result.add_pi(net.node(pi).name);
  const std::shared_ptr<const TopologyView> view = net.topology();
  for (NodeId id : view->topo()) {
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kPi) continue;
    if (n.kind == NodeKind::kConst0) {
      map[id] = get_const(false);
      continue;
    }
    if (n.kind == NodeKind::kConst1) {
      map[id] = get_const(true);
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(n.fanins.size());
    for (NodeId f : n.fanins) fanins.push_back(map[f]);
    Sop sop = n.sop;

    // Substitute constant fanins.
    for (int v = 0; v < sop.num_vars(); ++v) {
      if (kind_of(fanins[v]) == NodeKind::kConst0) {
        sop = sop.cofactor(v, false);
      } else if (kind_of(fanins[v]) == NodeKind::kConst1) {
        sop = sop.cofactor(v, true);
      }
    }
    sop.make_scc_free();

    // Fuse duplicate fanins: if positions i and j reference the same node,
    // each cube's constraints on them intersect into position i.
    {
      bool has_dup = false;
      for (size_t i = 0; i < fanins.size() && !has_dup; ++i) {
        for (size_t j = i + 1; j < fanins.size(); ++j) {
          if (fanins[i] == fanins[j]) {
            has_dup = true;
            break;
          }
        }
      }
      if (has_dup) {
        Sop fused(sop.num_vars());
        for (const Cube& c : sop.cubes()) {
          Cube nc = c;
          for (size_t i = 0; i < fanins.size(); ++i) {
            for (size_t j = i + 1; j < fanins.size(); ++j) {
              if (fanins[i] != fanins[j]) continue;
              auto meet = static_cast<LitCode>(
                  static_cast<uint8_t>(nc.get(static_cast<int>(i))) &
                  static_cast<uint8_t>(nc.get(static_cast<int>(j))));
              nc.set(static_cast<int>(i), meet);
              nc.set(static_cast<int>(j), LitCode::kFree);
            }
          }
          fused.add_cube(nc);  // drops cubes made empty by the meet
        }
        fused.make_scc_free();
        sop = std::move(fused);
      }
    }

    if (sop.num_vars() <= 12 && !sop.empty()) {
      sop = minimize(sop);
    }

    // Constant folding after substitution/minimization.
    if (sop.empty()) {
      map[id] = get_const(false);
      continue;
    }
    if (Sop::tautology(sop)) {
      map[id] = get_const(true);
      continue;
    }
    compact_node(fanins, sop);

    if (is_buffer_sop(sop)) {
      map[id] = fanins[0];
      continue;
    }
    if (is_inverter_sop(sop)) {
      // INV(INV(x)) -> x.
      const Node& g = result.node(fanins[0]);
      if (g.kind == NodeKind::kLogic && is_inverter_sop(g.sop)) {
        map[id] = g.fanins[0];
        continue;
      }
    }

    Sop canon = sop;
    canon.canonicalize();
    StrashKey key{fanins, canon.to_string()};
    auto it = strash.find(key);
    if (it != strash.end()) {
      map[id] = it->second;
      continue;
    }
    map[id] = result.add_node(fanins, std::move(sop), n.name);
    strash.emplace(std::move(key), map[id]);
  }

  for (const PrimaryOutput& po : net.pos()) {
    result.add_po(po.name, map[po.driver]);
  }
  result.cleanup();
  result.check();
  return result;
}

Network quick_synthesis(const Network& net) {
  return quick_synthesis(net, kAigQuickSynthesisThreshold);
}

Network quick_synthesis(const Network& net, int aig_threshold) {
  if (aig_threshold >= 0 && net.num_logic_nodes() >= aig_threshold) {
    // Above the threshold the SOP-level pass (per-node covers, string
    // strash keys) stops being "quick"; the AIG substrate takes over.
    return aig::aig_quick_synthesis(net);
  }
  return optimize(net);
}

int resubstitute(Network& net) {
  // `order` pins the pre-rewrite topological order for the sweep (the
  // legacy code iterated a by-value snapshot with the same property);
  // `info` supplies levels and CSR fanout adjacency and is refreshed after
  // each rewrite, exactly where the legacy levels/fanouts recompute sat.
  const std::shared_ptr<const TopologyView> order = net.topology();
  std::shared_ptr<const TopologyView> info = order;
  int rewrites = 0;

  for (NodeId id : order->topo()) {
    const Node& n = net.node(id);
    if (n.kind != NodeKind::kLogic) continue;
    if (n.fanins.size() < 2 || n.sop.num_cubes() < 2) continue;

    // Map from network node -> variable index within n's SOP.
    std::unordered_map<NodeId, int> var_of;
    for (size_t v = 0; v < n.fanins.size(); ++v) {
      var_of[n.fanins[v]] = static_cast<int>(v);
    }

    // Candidate divisors: logic nodes fed by at least two of n's fanins,
    // with every fanin inside n's fanin set and a strictly smaller level
    // (which rules out any dependency of the divisor on n).
    std::unordered_map<NodeId, int> shared;
    for (NodeId f : n.fanins) {
      for (NodeId out : info->fanouts(f)) ++shared[out];
    }
    const Node* best_divisor = nullptr;
    NodeId best_divisor_id = kNullNode;
    Sop best_new_sop(0);
    int best_savings = 0;

    for (const auto& [cand, count] : shared) {
      if (cand == id || count < 2) continue;
      const Node& d = net.node(cand);
      if (d.kind != NodeKind::kLogic) continue;
      if (info->level(cand) > info->level(id)) {
        continue;  // same level cannot depend on id
      }
      if (d.sop.num_cubes() < 2) continue;  // single cubes rarely help
      bool subset = true;
      for (NodeId f : d.fanins) {
        if (!var_of.count(f)) {
          subset = false;
          break;
        }
      }
      if (!subset) continue;

      // Remap d's SOP into n's variable space.
      Sop divisor(n.sop.num_vars());
      for (const Cube& c : d.sop.cubes()) {
        Cube remapped = Cube::full(n.sop.num_vars());
        for (int v = 0; v < d.sop.num_vars(); ++v) {
          LitCode code = c.get(v);
          if (code != LitCode::kFree) {
            remapped.set(var_of.at(d.fanins[v]), code);
          }
        }
        divisor.add_cube(remapped);
      }
      auto [q, r] = algebraic_divide(n.sop, divisor);
      if (q.empty()) continue;

      // Rewritten SOP over fanins + the divisor signal as a new variable.
      const int nv = n.sop.num_vars();
      Sop rewritten(nv + 1);
      for (const Cube& c : q.cubes()) {
        Cube wide = Cube::full(nv + 1);
        for (int v = 0; v < nv; ++v) wide.set(v, c.get(v));
        wide.set(nv, LitCode::kPos);
        rewritten.add_cube(wide);
      }
      for (const Cube& c : r.cubes()) {
        Cube wide = Cube::full(nv + 1);
        for (int v = 0; v < nv; ++v) wide.set(v, c.get(v));
        rewritten.add_cube(wide);
      }
      int savings = n.sop.literal_count() -
                    (rewritten.literal_count());
      if (savings > best_savings) {
        best_savings = savings;
        best_divisor = &d;
        best_divisor_id = cand;
        best_new_sop = std::move(rewritten);
      }
    }
    if (best_divisor != nullptr) {
      std::vector<NodeId> fanins = n.fanins;
      fanins.push_back(best_divisor_id);
      Sop sop = best_new_sop;
      compact_node(fanins, sop);
      net.set_function(id, std::move(fanins), std::move(sop));
      ++rewrites;
      // Levels may have grown through the new edge; refresh the snapshot.
      info = net.topology();
    }
  }
  return rewrites;
}

void compact_unused_fanins(Network& net) {
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    Node& n = net.node(id);
    if (n.kind != NodeKind::kLogic) continue;
    std::vector<NodeId> fanins = n.fanins;
    Sop sop = n.sop;
    compact_node(fanins, sop);
    if (fanins.size() != n.fanins.size()) {
      net.set_function(id, std::move(fanins), std::move(sop));
    }
  }
}

}  // namespace apx
