#include "aig/convert.hpp"

#include <stdexcept>

#include "core/trace.hpp"
#include "network/ordering.hpp"
#include "network/topology_view.hpp"
#include "tt/truth_table.hpp"

namespace apx::aig {
namespace {

Lit reduce_balanced(Aig* g, std::vector<Lit> v, bool is_and) {
  if (v.empty()) return is_and ? kLitTrue : kLitFalse;
  while (v.size() > 1) {
    std::vector<Lit> next;
    next.reserve((v.size() + 1) / 2);
    for (size_t i = 0; i + 1 < v.size(); i += 2) {
      next.push_back(is_and ? g->create_and(v[i], v[i + 1])
                            : g->create_or(v[i], v[i + 1]));
    }
    if (v.size() & 1) next.push_back(v.back());
    v = std::move(next);
  }
  return v[0];
}

}  // namespace

Aig network_to_aig(const Network& net) {
  trace::Span span("aig.from_network");
  const std::shared_ptr<const TopologyView> topo = net.topology();

  Aig aig;
  std::vector<Lit> mapped(net.num_nodes(), kInvalidLit);
  // PIs first, in PI-list order, so indices line up across the round trip.
  for (NodeId pi : net.pis()) {
    mapped[pi] = aig.add_pi(net.node(pi).name);
  }

  std::vector<Lit> cube_lits;
  std::vector<Lit> term_lits;
  for (NodeId id : topo->topo()) {
    const Node& n = net.node(id);
    switch (n.kind) {
      case NodeKind::kConst0:
        mapped[id] = kLitFalse;
        break;
      case NodeKind::kConst1:
        mapped[id] = kLitTrue;
        break;
      case NodeKind::kPi:
        break;  // pre-mapped
      case NodeKind::kLogic: {
        cube_lits.clear();
        for (const Cube& c : n.sop.cubes()) {
          term_lits.clear();
          for (size_t v = 0; v < n.fanins.size(); ++v) {
            const LitCode code = c.get(static_cast<int>(v));
            if (code == LitCode::kFree) continue;
            if (code == LitCode::kEmpty) {
              term_lits.assign(1, kLitFalse);
              break;
            }
            term_lits.push_back(lit_not_cond(mapped[n.fanins[v]],
                                             code == LitCode::kNeg));
          }
          cube_lits.push_back(
              reduce_balanced(&aig, term_lits, /*is_and=*/true));
        }
        mapped[id] = reduce_balanced(&aig, cube_lits, /*is_and=*/false);
        break;
      }
    }
  }

  for (const PrimaryOutput& po : net.pos()) {
    aig.add_po(mapped[po.driver], po.name);
  }
  return aig;
}

Network aig_to_network(const Aig& aig) {
  trace::Span span("aig.to_network");
  Network net;

  std::vector<NodeId> mapped(aig.num_nodes(), kNullNode);
  for (int i = 0; i < aig.num_pis(); ++i) {
    mapped[aig.pi_node(i)] = net.add_pi(aig.pi_name(i));
  }

  // Only the PO-reachable cone is materialized: the arena keeps every node
  // ever hashed, including cones abandoned by rewriting.
  std::vector<char> live(aig.num_nodes(), 0);
  {
    std::vector<uint32_t> stack;
    for (int i = 0; i < aig.num_pos(); ++i) {
      const uint32_t root = lit_node(aig.po_lit(i));
      if (!live[root]) {
        live[root] = 1;
        stack.push_back(root);
      }
    }
    while (!stack.empty()) {
      const uint32_t id = stack.back();
      stack.pop_back();
      if (!aig.is_and(id)) continue;
      for (Lit f : {aig.fanin0(id), aig.fanin1(id)}) {
        if (!live[lit_node(f)]) {
          live[lit_node(f)] = 1;
          stack.push_back(lit_node(f));
        }
      }
    }
  }

  NodeId consts[2] = {kNullNode, kNullNode};
  auto const_node = [&](bool value) {
    NodeId& slot = consts[value ? 1 : 0];
    if (slot == kNullNode) slot = net.add_const(value);
    return slot;
  };

  // Ascending id order is topological, so fanins are always mapped first.
  // Each AND becomes a 2-input SOP node whose cover is the ISOP of the
  // edge-polarity-adjusted local function (one cube; polarities become
  // cover literals).
  for (uint32_t id = 1; id < static_cast<uint32_t>(aig.num_nodes()); ++id) {
    if (!live[id] || !aig.is_and(id)) continue;
    const Lit f0 = aig.fanin0(id);
    const Lit f1 = aig.fanin1(id);
    TruthTable local = (lit_complemented(f0)
                            ? ~TruthTable::variable(2, 0)
                            : TruthTable::variable(2, 0)) &
                       (lit_complemented(f1) ? ~TruthTable::variable(2, 1)
                                             : TruthTable::variable(2, 1));
    mapped[id] = net.add_node({mapped[lit_node(f0)], mapped[lit_node(f1)]},
                              local.isop());
  }

  for (int i = 0; i < aig.num_pos(); ++i) {
    const Lit po = aig.po_lit(i);
    NodeId driver;
    if (lit_node(po) == 0) {
      driver = const_node(lit_complemented(po));
    } else {
      driver = mapped[lit_node(po)];
      if (lit_complemented(po)) {
        driver = net.add_node({driver}, (~TruthTable::variable(1, 0)).isop());
      }
    }
    net.add_po(aig.po_name(i), driver);
  }
  net.check();
  return net;
}

Network aig_quick_synthesis(const Network& net, RewriteStats* stats) {
  trace::Span span("aig.quick_synthesis");
  trace::counter("aig.quick_synthesis_calls").add(1);

  const Aig aig = network_to_aig(net);
  RewriteStats local;
  RewriteStats* s = stats ? stats : &local;
  const Aig rewritten = rewrite(aig, s);
  trace::counter("aig.rewrite_ands_saved")
      .add(s->ands_before - s->ands_after);

  Network result = aig_to_network(rewritten);
  result.set_name(net.name());
  result.cleanup();
  result.check();

  // The pass preserves the PI set (names and order), so a BDD variable
  // order that sifting already converged on for the input circuit is just
  // as good for the synthesized one — transfer it to the output's
  // content-hash key so downstream oracle builds start warm.
  if (auto cached = OrderCache::instance().lookup(network_content_hash(net),
                                                  net.num_pis())) {
    OrderCache::instance().store(network_content_hash(result),
                                 std::move(*cached));
  }
  return result;
}

}  // namespace apx::aig
