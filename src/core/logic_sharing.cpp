#include "core/logic_sharing.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/task_pool.hpp"
#include "sat/encode.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

// Simulation words and seed for candidate signatures.
constexpr int kSignatureWords = 64;
constexpr uint64_t kSignatureSeed = 0x5A4E;
// SAT conflict budget per equivalence proof (kUnknown => not merged).
constexpr int64_t kSatConflictBudget = 20000;
// Pattern words per fault used to estimate a node's error contribution.
constexpr int kCriticalityWords = 8;

uint64_t signature_of(const WordSpan& words) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (uint64_t w : words) {
    h ^= w + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

void remap_list(std::vector<NodeId>& list, const std::vector<NodeId>& map) {
  std::vector<NodeId> out;
  for (NodeId id : list) {
    if (map[id] != kNullNode) out.push_back(map[id]);
  }
  list = std::move(out);
}

}  // namespace

SharingReport apply_logic_sharing(CedDesign& ced,
                                  const SharingOptions& options) {
  SharingReport report;
  report.checkgen_area_before = static_cast<int>(ced.checkgen_nodes.size());

  Network& net = ced.design;
  Simulator sim(net);
  sim.run(PatternSet::random(net.num_pis(), kSignatureWords, kSignatureSeed));

  // Candidate index: signature -> functional nodes.
  std::unordered_multimap<uint64_t, NodeId> by_sig;
  for (NodeId f : ced.functional_nodes) {
    by_sig.emplace(signature_of(sim.value(f)), f);
  }

  SatSolver solver;
  std::vector<int> pi_vars;
  for (int i = 0; i < net.num_pis(); ++i) pi_vars.push_back(solver.new_var());
  std::vector<int> var_of = encode_network(solver, net, pi_vars);

  // Provable checkgen -> functional merges, found by signature + SAT.
  std::vector<std::pair<NodeId, NodeId>> provable;
  for (NodeId c : ced.checkgen_nodes) {
    uint64_t sig = signature_of(sim.value(c));
    auto [lo, hi] = by_sig.equal_range(sig);
    for (auto it = lo; it != hi; ++it) {
      NodeId f = it->second;
      if (sim.value(c) != sim.value(f)) continue;  // hash collision
      // Prove equivalence: assume t where t <-> (c XOR f); UNSAT => equal.
      int t = solver.new_var();
      Lit lt(t, false);
      Lit lc(var_of[c], false);
      Lit lf(var_of[f], false);
      solver.add_ternary(~lt, lc, lf);
      solver.add_ternary(~lt, ~lc, ~lf);
      solver.add_ternary(lt, ~lc, lf);
      solver.add_ternary(lt, lc, ~lf);
      SatResult r = solver.solve({lt}, kSatConflictBudget);
      if (r == SatResult::kUnsat) {
        provable.push_back({c, f});
        break;
      }
    }
  }

  // Criticality filter (paper: share only *non-critical* nodes). A fault
  // at a shared node corrupts circuit and check function identically and
  // becomes undetectable, so each merge costs the target node's error
  // mass. Estimate that mass by fault injection and keep the cheapest
  // merges within the budget.
  std::unordered_map<NodeId, NodeId> merge;
  {
    std::unordered_map<NodeId, double> mass;
    double total_mass = 0.0;
    // Both stuck-at polarities of every functional node in one batch; each
    // fault writes its own slot, so the sums are independent of threads.
    const std::vector<NodeId>& sites = ced.functional_nodes;
    std::vector<FaultSpec> faults;
    faults.reserve(2 * sites.size());
    for (NodeId f : sites) {
      faults.push_back(FaultSpec::stuck_at(f, false));
      faults.push_back(FaultSpec::stuck_at(f, true));
    }
    const int W = kCriticalityWords;
    std::vector<int64_t> fault_mass(faults.size(), 0);
    std::vector<std::vector<uint64_t>> err_rows(thread_count());
    FaultSimEngine engine(net);
    engine.run_batch(
        PatternSet::random(net.num_pis(), W, kSignatureSeed ^ 0xC417), faults,
        [&](int i, const FaultSpec&, const FaultView& v) {
          std::vector<uint64_t>& err = err_rows[v.worker_slot()];
          err.assign(static_cast<size_t>(W), 0);
          for (NodeId out : ced.functional_outputs) {
            accumulate_xor_or(err.data(), v.golden(out), v.faulty(out), W);
          }
          fault_mass[i] = popcount_words(err.data(), W, ~0ULL);
        });
    for (size_t k = 0; k < sites.size(); ++k) {
      const double m =
          static_cast<double>(fault_mass[2 * k] + fault_mass[2 * k + 1]);
      mass[sites[k]] = m;
      total_mass += m;
    }
    std::sort(provable.begin(), provable.end(),
              [&](const auto& a, const auto& b) {
                return mass[a.second] < mass[b.second];
              });
    double budget = options.max_error_mass * total_mass;
    double spent = 0.0;
    for (const auto& [c, f] : provable) {
      if (spent + mass[f] > budget && !merge.empty()) break;
      spent += mass[f];
      merge[c] = f;
    }
  }
  if (merge.empty()) {
    report.checkgen_area_after = report.checkgen_area_before;
    return report;
  }
  report.merged_nodes = static_cast<int>(merge.size());

  // Rewire every fanin reference (and the error-pair rails) through merges.
  auto resolve = [&](NodeId id) {
    auto it = merge.find(id);
    return it == merge.end() ? id : it->second;
  };
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (NodeId& f : net.node(id).fanins) f = resolve(f);
  }
  for (int o = 0; o < net.num_pos(); ++o) {
    net.set_po_driver(o, resolve(net.po(o).driver));
  }
  ced.error_pair.rail1 = resolve(ced.error_pair.rail1);
  ced.error_pair.rail2 = resolve(ced.error_pair.rail2);
  for (NodeId& id : ced.functional_outputs) id = resolve(id);

  std::vector<NodeId> map = net.cleanup();
  remap_list(ced.functional_nodes, map);
  remap_list(ced.checkgen_nodes, map);
  remap_list(ced.checker_nodes, map);
  for (NodeId& id : ced.functional_outputs) id = map[id];
  ced.error_pair.rail1 = map[ced.error_pair.rail1];
  ced.error_pair.rail2 = map[ced.error_pair.rail2];

  report.checkgen_area_after = static_cast<int>(ced.checkgen_nodes.size());
  net.check();
  return report;
}

}  // namespace apx
