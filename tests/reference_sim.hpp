// Brute-force reference simulation shared by the fault-injection tests:
// every node of the network is re-evaluated in topological order, with no
// cone tracking, event queue or early stop, so it is an independent check
// of FaultSimEngine's incremental walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "network/network.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace apx {

/// Bit mask of word `w` covering the vector window [start, start + len).
inline uint64_t window_mask(int32_t start, int32_t len, int w) {
  const int64_t lo = static_cast<int64_t>(w) * 64;
  const int64_t hi = lo + 64;
  const int64_t s = std::max<int64_t>(start, lo);
  const int64_t e = std::min<int64_t>(static_cast<int64_t>(start) + len, hi);
  if (s >= e) return 0;
  const int b = static_cast<int>(e - lo);
  const int a = static_cast<int>(s - lo);
  const uint64_t upto = b == 64 ? ~0ULL : (1ULL << b) - 1;
  return upto & ~((1ULL << a) - 1);
}

/// One row of words per node, indexed by NodeId.
using Plane = std::vector<std::vector<uint64_t>>;

/// Full simulation of `pats`. `force(id, row)`, when given, may overwrite
/// node id's freshly evaluated row before any fanout reads it.
inline Plane simulate_plane(
    const Network& net, const PatternSet& pats,
    const std::function<void(NodeId, uint64_t*)>& force = nullptr) {
  const int W = pats.num_words();
  Plane val(net.num_nodes(), std::vector<uint64_t>(W, 0));
  auto view = net.topology();
  std::vector<int> pi_col(net.num_nodes(), -1);
  for (int i = 0; i < net.num_pis(); ++i) pi_col[net.pis()[i]] = i;
  std::vector<const uint64_t*> fanin;
  for (NodeId id : view->topo()) {
    const Node& n = net.node(id);
    uint64_t* out = val[id].data();
    switch (n.kind) {
      case NodeKind::kPi: {
        const WordSpan col = pats.column(pi_col[id]);
        std::copy(col.begin(), col.end(), out);
        break;
      }
      case NodeKind::kConst0:
        break;  // zero-initialized
      case NodeKind::kConst1:
        std::fill(out, out + W, ~0ULL);
        break;
      case NodeKind::kLogic: {
        fanin.clear();
        for (NodeId f : n.fanins) fanin.push_back(val[f].data());
        eval_sop_words(n.sop, fanin.data(), W, out);
        break;
      }
    }
    if (force) force(id, out);
  }
  return val;
}

/// Full re-simulation with the spec's sites overridden, matching the
/// engine's semantics: permanent sites hold `forced` on every vector;
/// transient sites hold (golden & ~window) | (forced & window), where
/// golden is the *fault-free* plane (site rows are pinned for the whole
/// batch). `spec == nullptr` gives the fault-free plane.
inline Plane reference_plane(const Network& net, const PatternSet& pats,
                             const FaultSpec* spec, const Plane* golden) {
  const int W = pats.num_words();
  return simulate_plane(net, pats, [&](NodeId id, uint64_t* out) {
    if (spec == nullptr) return;
    for (int s = 0; s < spec->num_sites; ++s) {
      const FaultSite& site = spec->sites[s];
      if (site.node != id) continue;
      const uint64_t forced = site.stuck_value ? ~0ULL : 0ULL;
      if (!site.transient) {
        std::fill(out, out + W, forced);
      } else {
        for (int w = 0; w < W; ++w) {
          const uint64_t m =
              window_mask(site.burst_start, site.burst_length, w);
          out[w] = ((*golden)[id][w] & ~m) | (forced & m);
        }
      }
    }
  });
}

}  // namespace apx
