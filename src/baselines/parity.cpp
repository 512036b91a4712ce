#include "baselines/parity.hpp"

#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"

namespace apx {
namespace {

// Balanced XOR tree over `sigs` (each XOR2 is a library-mapped pair later;
// here the nodes are plain XOR2 gates, already primitive).
NodeId xor_tree(Network& net, std::vector<NodeId> sigs) {
  if (sigs.empty()) return net.add_const(false);
  while (sigs.size() > 1) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < sigs.size(); i += 2) {
      next.push_back(net.add_xor(sigs[i], sigs[i + 1]));
    }
    if (sigs.size() % 2) next.push_back(sigs.back());
    sigs = std::move(next);
  }
  return sigs[0];
}

}  // namespace

Network build_parity_predictor(const Network& mapped) {
  // Predictor = copy of the circuit + XOR tree over its outputs, collapsed
  // to a single PO, then re-optimized and re-mapped.
  Network pred;
  pred.set_name(mapped.name() + "_parity_pred");
  std::vector<NodeId> pi_map;
  for (NodeId pi : mapped.pis()) {
    pi_map.push_back(pred.add_pi(mapped.node(pi).name));
  }
  std::vector<NodeId> map = mapped.append_into(pred, pi_map);
  std::vector<NodeId> outs;
  for (const PrimaryOutput& po : mapped.pos()) {
    outs.push_back(map[po.driver]);
  }
  pred.add_po("parity", xor_tree(pred, std::move(outs)));
  pred.cleanup();
  return technology_map(quick_synthesis(pred));
}

CedDesign build_parity_ced(const Network& mapped) {
  Network predictor = build_parity_predictor(mapped);

  CedDesign ced;
  ced.design.set_name(mapped.name() + "_parity_ced");
  std::vector<NodeId> pi_map;
  for (NodeId pi : mapped.pis()) {
    pi_map.push_back(ced.design.add_pi(mapped.node(pi).name));
  }
  int before = ced.design.num_nodes();
  std::vector<NodeId> omap = mapped.append_into(ced.design, pi_map);
  for (NodeId id = before; id < ced.design.num_nodes(); ++id) {
    if (ced.design.node(id).kind == NodeKind::kLogic) {
      ced.functional_nodes.push_back(id);
    }
  }
  before = ced.design.num_nodes();
  std::vector<NodeId> pmap = predictor.append_into(ced.design, pi_map);
  for (NodeId id = before; id < ced.design.num_nodes(); ++id) {
    if (ced.design.node(id).kind == NodeKind::kLogic) {
      ced.checkgen_nodes.push_back(id);
    }
  }
  for (int o = 0; o < mapped.num_pos(); ++o) {
    NodeId drv = omap[mapped.po(o).driver];
    ced.functional_outputs.push_back(drv);
    ced.design.add_po(mapped.po(o).name, drv);
  }

  // Checker side: parity tree over the functional outputs + comparator.
  before = ced.design.num_nodes();
  NodeId actual_parity = xor_tree(ced.design, ced.functional_outputs);
  NodeId predicted = pmap[predictor.po(0).driver];
  ced.error_pair = build_equality_checker(ced.design, actual_parity, predicted);
  for (NodeId id = before; id < ced.design.num_nodes(); ++id) {
    if (ced.design.node(id).kind == NodeKind::kLogic) {
      ced.checker_nodes.push_back(id);
    }
  }
  ced.design.add_po("err_rail1", ced.error_pair.rail1);
  ced.design.add_po("err_rail2", ced.error_pair.rail2);
  ced.design.check();
  return ced;
}

}  // namespace apx
