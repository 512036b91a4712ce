// BDD variable-ordering benchmark: builds every PO cone of each circuit
// (original and a cube-dropped approximation) under three orderings —
// natural (identity PI order), static (interleaved fanin-DFS from the POs,
// network/ordering.hpp), and static+sift (dynamic reordering on top) — and
// reports peak arena nodes, build time, and the SAT-fallback count (PO
// cones that overflowed the node budget and would be answered by the
// solver in the oracle). Implication verdicts and minterm fractions must
// be bit-identical across orderings on every commonly-built PO, and
// across thread counts (the circuit sweep is re-run on the shared task
// pool). Emits BENCH_bdd.json (fields documented in EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bdd/network_bdd.hpp"
#include "bench_util.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/task_pool.hpp"
#include "network/ordering.hpp"

using namespace apx;
using namespace apx::bench;

namespace {

enum Mode { kNatural = 0, kStatic = 1, kSift = 2 };
constexpr const char* kModeKeys[3] = {"natural", "static", "static_sift"};

// Approximation under test: drop the last cube of a few multi-cube nodes
// (the stage-2 "weaken" mutation). What matters here is not the verdict
// itself but that every ordering reports the same one.
Network make_weakened(const Network& net) {
  Network weak = net;
  int weakened = 0;
  for (NodeId id = 0; id < weak.num_nodes() && weakened < 4; ++id) {
    const Node& n = weak.node(id);
    if (n.kind != NodeKind::kLogic || n.sop.num_cubes() < 2) continue;
    if ((id % 3) != 0) continue;  // spread the sites out
    std::vector<Cube> cubes(n.sop.cubes().begin(), n.sop.cubes().end() - 1);
    weak.set_sop(id, Sop(n.sop.num_vars(), std::move(cubes)));
    ++weakened;
  }
  return weak;
}

struct ModeResult {
  double build_seconds = 0.0;
  uint64_t peak_nodes = 0;
  uint64_t final_nodes = 0;  // live nodes once every query has run
  int fallbacks = 0;  // PO cones lost to BddOverflow (SAT would answer)
  uint64_t reorder_runs = 0;
  double reorder_time_ms = 0.0;
  double avg_probe_length = 0.0;
  std::vector<int> built;         // PO indices with both f and g built
  std::vector<uint8_t> verdicts;  // implies(g, f), aligned with `built`
  std::vector<double> pcts;       // sat_fraction(f), sat_fraction(g) pairs
};

ModeResult run_mode(const Network& net, const Network& weak, Mode mode,
                    size_t budget) {
  std::vector<int> order;
  if (mode != kNatural) order = static_pi_order(net);
  BddManager mgr(net.num_pis(), budget, order);
  mgr.set_auto_reorder(mode == kSift);
  if (mode == kSift) mgr.set_reorder_threshold(256);

  ModeResult r;
  const int P = net.num_pos();
  std::vector<BddManager::Ref> f_refs(P, BddManager::kInvalidRef);
  std::vector<BddManager::Ref> g_refs(P, BddManager::kInvalidRef);
  mgr.register_external_refs(&f_refs);
  mgr.register_external_refs(&g_refs);
  Stopwatch watch;
  for (int po = 0; po < P; ++po) {
    if (auto ref = build_po_bdd(mgr, net, po)) {
      f_refs[po] = *ref;
    } else {
      ++r.fallbacks;
    }
  }
  for (int po = 0; po < P; ++po) {
    if (auto ref = build_po_bdd(mgr, weak, po)) {
      g_refs[po] = *ref;
    } else {
      ++r.fallbacks;
    }
  }
  if (mode == kSift) mgr.reorder();  // settle the finished root set
  r.build_seconds = watch.seconds();

  for (int po = 0; po < P; ++po) {
    if (f_refs[po] == BddManager::kInvalidRef ||
        g_refs[po] == BddManager::kInvalidRef) {
      continue;
    }
    try {
      bool holds = mgr.implies(g_refs[po], f_refs[po]);
      r.built.push_back(po);
      r.verdicts.push_back(holds ? 1 : 0);
      r.pcts.push_back(mgr.sat_fraction(f_refs[po]));
      r.pcts.push_back(mgr.sat_fraction(g_refs[po]));
    } catch (const BddOverflow&) {
      ++r.fallbacks;
    }
    if (mgr.reorder_pending()) mgr.reorder();
  }
  r.peak_nodes = mgr.stats().peak_nodes;
  r.final_nodes = mgr.live_nodes();
  r.reorder_runs = mgr.stats().reorder_runs;
  r.reorder_time_ms = mgr.stats().reorder_time_ms;
  r.avg_probe_length = mgr.stats().avg_probe_length();
  return r;
}

// Verdicts/pcts restricted to the POs every mode managed to build must be
// bit-identical: canonical BDDs answer the same regardless of the order.
bool modes_agree(const ModeResult modes[3]) {
  std::vector<int> common = modes[0].built;
  for (int m = 1; m < 3; ++m) {
    std::vector<int> next;
    std::set_intersection(common.begin(), common.end(),
                          modes[m].built.begin(), modes[m].built.end(),
                          std::back_inserter(next));
    common = std::move(next);
  }
  std::vector<uint8_t> verdicts[3];
  std::vector<double> pcts[3];
  for (int m = 0; m < 3; ++m) {
    const ModeResult& mr = modes[m];
    for (size_t i = 0; i < mr.built.size(); ++i) {
      if (!std::binary_search(common.begin(), common.end(), mr.built[i])) {
        continue;
      }
      verdicts[m].push_back(mr.verdicts[i]);
      pcts[m].push_back(mr.pcts[2 * i]);
      pcts[m].push_back(mr.pcts[2 * i + 1]);
    }
  }
  for (int m = 1; m < 3; ++m) {
    if (verdicts[m] != verdicts[0]) return false;
    if (pcts[m].size() != pcts[0].size() ||
        std::memcmp(pcts[m].data(), pcts[0].data(),
                    pcts[0].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct CircuitResult {
  std::string name;
  int pis = 0;
  int pos = 0;
  int gates = 0;
  ModeResult modes[3];
  bool results_identical = false;
  double reduction = 0.0;  // natural peak / static+sift peak
};

CircuitResult run_circuit(const std::string& name, size_t budget) {
  Network net = make_benchmark(name);
  Network weak = make_weakened(net);
  CircuitResult c;
  c.name = name;
  c.pis = net.num_pis();
  c.pos = net.num_pos();
  c.gates = net.num_logic_nodes();
  for (int m = 0; m < 3; ++m) {
    c.modes[m] = run_mode(net, weak, static_cast<Mode>(m), budget);
  }
  c.results_identical = modes_agree(c.modes);
  c.reduction = static_cast<double>(c.modes[kNatural].peak_nodes) /
                static_cast<double>(c.modes[kSift].peak_nodes);
  return c;
}

bool same_answers(const CircuitResult& a, const CircuitResult& b) {
  for (int m = 0; m < 3; ++m) {
    if (a.modes[m].built != b.modes[m].built) return false;
    if (a.modes[m].verdicts != b.modes[m].verdicts) return false;
    if (a.modes[m].pcts.size() != b.modes[m].pcts.size() ||
        std::memcmp(a.modes[m].pcts.data(), b.modes[m].pcts.data(),
                    a.modes[m].pcts.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_bdd.json";
  // Arithmetic circuits whose natural (separated a.., b..) PI order is
  // exponentially bad, plus MCNC-profile stand-ins where the structural
  // heuristic has to earn its keep on irregular logic.
  const std::vector<std::string> circuits = {"rca8",  "rca16", "cmp8",
                                             "cmp16", "cmb",   "cordic",
                                             "term1", "alu1"};
  const size_t budget = 1u << 18;
  const int threads = resolve_thread_option(bench_threads());

  std::printf("bench_bdd: PO-cone builds under natural / static / "
              "static+sift orderings (budget %zu nodes)\n\n",
              budget);
  std::printf("%-8s %6s | %10s %10s %10s | %6s %5s %5s | %s\n", "circuit",
              "PIs", "nat peak", "stat peak", "sift peak", "redux", "fb:n",
              "fb:s", "reorders");

  std::vector<CircuitResult> serial;
  for (const std::string& name : circuits) {
    serial.push_back(run_circuit(name, budget));
    const CircuitResult& c = serial.back();
    std::printf("%-8s %6d | %10llu %10llu %10llu | %5.1fx %5d %5d | %llu "
                "(%.1f ms)\n",
                c.name.c_str(), c.pis,
                static_cast<unsigned long long>(c.modes[kNatural].peak_nodes),
                static_cast<unsigned long long>(c.modes[kStatic].peak_nodes),
                static_cast<unsigned long long>(c.modes[kSift].peak_nodes),
                c.reduction, c.modes[kNatural].fallbacks,
                c.modes[kSift].fallbacks,
                static_cast<unsigned long long>(c.modes[kSift].reorder_runs),
                c.modes[kSift].reorder_time_ms);
  }

  // Thread-count differential: same sweep, one task-pool task per circuit
  // (managers are task-local, so the answers may not depend on the
  // schedule or the worker count).
  std::vector<CircuitResult> parallel(circuits.size());
  TaskPool::instance().parallel_for(
      0, static_cast<int64_t>(circuits.size()),
      [&](int64_t i) { parallel[i] = run_circuit(circuits[i], budget); },
      threads);
  bool parallel_identical = true;
  for (size_t i = 0; i < circuits.size(); ++i) {
    parallel_identical = parallel_identical && same_answers(serial[i], parallel[i]);
  }

  bool orderings_identical = true;
  bool sift_peak_le_natural = true;
  int two_x_count = 0;
  int fallbacks_natural = 0, fallbacks_static = 0, fallbacks_sift = 0;
  for (const CircuitResult& c : serial) {
    orderings_identical = orderings_identical && c.results_identical;
    sift_peak_le_natural =
        sift_peak_le_natural &&
        c.modes[kSift].peak_nodes <= c.modes[kNatural].peak_nodes;
    if (c.modes[kNatural].peak_nodes >= 2 * c.modes[kSift].peak_nodes) {
      ++two_x_count;
    }
    fallbacks_natural += c.modes[kNatural].fallbacks;
    fallbacks_static += c.modes[kStatic].fallbacks;
    fallbacks_sift += c.modes[kSift].fallbacks;
  }
  bool two_x_on_half = two_x_count * 2 >= static_cast<int>(circuits.size());
  bool fallbacks_reduced = fallbacks_sift <= fallbacks_natural;

  std::printf("\n>=2x peak reduction on %d/%zu circuits; "
              "SAT fallbacks natural=%d static=%d static+sift=%d\n",
              two_x_count, circuits.size(), fallbacks_natural,
              fallbacks_static, fallbacks_sift);
  std::printf("orderings bit-identical: %s   threads (%d) bit-identical: %s\n",
              orderings_identical ? "yes" : "NO", threads,
              parallel_identical ? "yes" : "NO");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  write_host_metadata(f);
  std::fprintf(f, "  \"bdd_budget\": %zu,\n", budget);
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"circuits\": [\n");
  for (size_t i = 0; i < serial.size(); ++i) {
    const CircuitResult& c = serial[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"pis\": %d, \"pos\": %d, "
                 "\"gates\": %d,\n",
                 c.name.c_str(), c.pis, c.pos, c.gates);
    for (int m = 0; m < 3; ++m) {
      const ModeResult& mr = c.modes[m];
      std::fprintf(
          f,
          "     \"%s\": {\"peak_nodes\": %llu, \"final_nodes\": %llu, "
          "\"build_seconds\": %.4f, "
          "\"fallbacks\": %d, \"reorder_runs\": %llu, "
          "\"reorder_time_ms\": %.3f, \"avg_probe_length\": %.3f},\n",
          kModeKeys[m], static_cast<unsigned long long>(mr.peak_nodes),
          static_cast<unsigned long long>(mr.final_nodes), mr.build_seconds,
          mr.fallbacks,
          static_cast<unsigned long long>(mr.reorder_runs),
          mr.reorder_time_ms, mr.avg_probe_length);
    }
    std::fprintf(f, "     \"peak_reduction_vs_natural\": %.2f, "
                 "\"results_bit_identical\": %s}%s\n",
                 c.reduction, c.results_identical ? "true" : "false",
                 i + 1 < serial.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"circuits_with_2x_reduction\": %d,\n", two_x_count);
  std::fprintf(f, "  \"sift_peak_le_natural_all\": %s,\n",
               sift_peak_le_natural ? "true" : "false");
  std::fprintf(f,
               "  \"fallbacks\": {\"natural\": %d, \"static\": %d, "
               "\"static_sift\": %d},\n",
               fallbacks_natural, fallbacks_static, fallbacks_sift);
  std::fprintf(f, "  \"orderings_bit_identical\": %s,\n",
               orderings_identical ? "true" : "false");
  std::fprintf(f, "  \"parallel_bit_identical\": %s\n",
               parallel_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // CI gate: ordering must never hurt peak size, must halve it on at
  // least half the suite, must not add SAT fallbacks, and every answer
  // must be independent of ordering and thread count.
  return (sift_peak_le_natural && two_x_on_half && fallbacks_reduced &&
          orderings_identical && parallel_identical)
             ? 0
             : 1;
}
