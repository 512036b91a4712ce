#include "core/approx_synthesis.hpp"

#include "bdd/network_bdd.hpp"
#include "core/cube_selection.hpp"
#include "core/trace.hpp"
#include "core/verify.hpp"
#include "mapping/optimize.hpp"
#include "network/topology_view.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"
#include "sop/minimize.hpp"

namespace apx {
namespace {

// The node's SOP written in the phase matching its type: off-set (zero
// phase) for type-0 nodes, on-set otherwise (paper Sec. 2.1.2).
Sop phase_sop_of(const Sop& onset, NodeType t) {
  if (t == NodeType::kZero) {
    Sop off = Sop::complement(onset);
    off.make_scc_free();
    return off;
  }
  return onset;
}

// Converts a phase-matched cover back to the stored on-set form.
Sop onset_from_phase(const Sop& phase, NodeType t) {
  if (t == NodeType::kZero) {
    Sop on = Sop::complement(phase);
    on.make_scc_free();
    if (on.num_vars() <= 12) on = minimize(on);
    return on;
  }
  return phase;
}

class SynthesisEngine {
 public:
  SynthesisEngine(const Network& net,
                  const std::vector<ApproxDirection>& directions,
                  const ApproxOptions& options)
      : net_(net),
        directions_(directions),
        options_(options),
        obs_(net, options.type_options.sim_words, options.type_options.seed),
        approx_(net),
        view_(net.topology()) {}

  ApproxResult run() {
    ApproxResult result;
    {
      trace::Span s("synth.assign_types");
      result.types =
          assign_types(net_, directions_, obs_, options_.type_options);
    }
    types_ = &result.types;
    repair_state_.assign(net_.num_nodes(), 0);
    stage1_phase_.assign(net_.num_nodes(), std::nullopt);

    {
      trace::Span s("synth.stage1");
      approximate_sops();
    }

    // Phase A: cheap global repair guided by bit-parallel simulation. One
    // simulator pair per round covers every PO; violations found this way
    // are always real, so fixing them before any exact query removes the
    // bulk of stage-2's cost on large multi-output circuits.
    int sim_repairs = 0;
    {
      trace::Span s("synth.sim_repair");
      simulation_repair_rounds(sim_repairs);
    }

    const int P = net_.num_pos();
    ApproxOracle oracle(net_, approx_, options_.bdd_budget);
    oracle.set_sat_conflict_budget(options_.sat_conflict_budget);
    result.po_stats.resize(P);
    for (int po = 0; po < P; ++po) {
      result.po_stats[po].direction = directions_[po];
    }
    {
      trace::Span s("synth.screening");
      // Bit-parallel prescreen: after the sim-repair rounds most POs are
      // already clean, so exact per-PO implication checks mostly re-prove
      // correctness. One simulator pair over a fixed pattern budget flags
      // every PO with an observed violation of its direction contract —
      // an observed violation is a real counterexample, so the exact
      // check could only confirm it — and estimates its error rate along
      // the way. Exact BDD/SAT evaluation is demoted to the final
      // implication verify of the prescreen-clean POs on the shared
      // oracle, replacing the per-chunk private oracles this stage used
      // to spin up (each rebuilt every BDD cone of both networks merely
      // to re-prove mostly-clean POs). Seeds are fixed constants rather
      // than draws from sim_rounds_, so the prescreen leaves the repair
      // stage's pattern stream exactly where the previous code did.
      const int words = 16;
      const int rounds = 4;
      Simulator sim_orig(net_);
      Simulator sim_approx(approx_);
      std::vector<uint8_t> sim_clean(P, 1);
      std::vector<int64_t> violation_bits(P, 0);
      for (int r = 0; r < rounds; ++r) {
        PatternSet patterns =
            PatternSet::random(net_.num_pis(), words, 0x5C12EE + 977 * r);
        sim_orig.run(patterns);
        sim_approx.run(patterns);
        for (int po = 0; po < P; ++po) {
          NodeId drv = net_.po(po).driver;
          NodeType dir_type = type_for_direction(directions_[po]);
          const auto& fw = sim_orig.value(drv);
          const auto& gw = sim_approx.value(drv);
          int64_t bits = 0;
          switch (dir_type) {
            case NodeType::kDc:
              break;
            case NodeType::kEx:
              // popcount(f ^ g) = |f| + |g| - 2|f & g|.
              bits = popcount_words(fw.data(), words, ~0ULL) +
                     popcount_words(gw.data(), words, ~0ULL) -
                     2 * popcount_and(fw.data(), gw.data(), words, ~0ULL);
              break;
            case NodeType::kOne:
              bits = popcount_andnot(fw.data(), gw.data(), words, ~0ULL);
              break;
            case NodeType::kZero:
              bits = popcount_andnot(gw.data(), fw.data(), words, ~0ULL);
              break;
          }
          if (bits != 0) {
            sim_clean[po] = 0;
            violation_bits[po] += bits;
          }
        }
      }
      for (int po = 0; po < P; ++po) {
        result.po_stats[po].sim_violation_rate =
            static_cast<double>(violation_bits[po]) /
            (64.0 * words * rounds);
        if (sim_clean[po] && oracle.verify(po, directions_[po])) {
          result.po_stats[po].verified = true;
          ++result.correct_after_stage1;
        }
      }
    }
    result.repairs += sim_repairs;
    {
      trace::Span s("synth.repair");
      for (int po = 0; po < net_.num_pos(); ++po) {
        if (result.po_stats[po].verified) continue;
        result.po_stats[po].verified =
            ensure_correctness(po, oracle, result.repairs);
      }
      // Repairs mutate nodes shared between cones, so a PO verified
      // earlier can regress: re-verify all POs until a fixed point
      // (bounded; the ultimate fallback restores cones to exact
      // functions, which satisfy every check).
      for (int pass = 0; pass < 4; ++pass) {
        bool regressed = false;
        for (int po = 0; po < net_.num_pos(); ++po) {
          if (oracle.verify(po, directions_[po])) continue;
          regressed = true;
          result.po_stats[po].verified =
              ensure_correctness(po, oracle, result.repairs);
        }
        if (!regressed) break;
        if (pass == 3) {
          // Shouldn't happen (restores are monotone), but never ship an
          // unverified PO: nuke any stragglers to exact.
          for (int po = 0; po < net_.num_pos(); ++po) {
            if (!oracle.verify(po, directions_[po])) {
              restore_cone(net_.po(po).driver);
              oracle.refresh_approx();
              result.po_stats[po].verified =
                  oracle.verify(po, directions_[po]);
            }
          }
        }
      }
    }
    // Final percentage sweep over the now-frozen approx network, served by
    // the repair oracle: approximation_pct never asks the SAT solver (it
    // counts BDD minterms exactly, or samples with a fixed seed), and it
    // rebuilds BDDs the repair loop dropped where a fresh build would fit,
    // so its answers do not depend on the oracle's query history.
    {
      trace::Span s("synth.pct_sweep");
      oracle.refresh_approx();
      for (int po = 0; po < P; ++po) {
        result.po_stats[po].approximation_pct =
            oracle.approximation_pct(po, directions_[po]);
      }
    }
    compact_unused_fanins(approx_);
    approx_.cleanup();
    approx_.set_name(net_.name() + "_approx");
    result.approx = std::move(approx_);
    return result;
  }

 private:
  NodeType type_of(NodeId id) const { return types_->of(id); }

  std::vector<NodeType> fanin_types(NodeId id) const {
    const Node& n = net_.node(id);
    std::vector<NodeType> ft;
    ft.reserve(n.fanins.size());
    for (NodeId f : n.fanins) ft.push_back(type_of(f));
    return ft;
  }

  std::vector<double> fanin_probs(NodeId id) const {
    const Node& n = net_.node(id);
    std::vector<double> p;
    p.reserve(n.fanins.size());
    for (NodeId f : n.fanins) p.push_back(obs_.signal_probability(f));
    return p;
  }

  // Stage 1 (paper: "Approximation of SOPs"): discard cubes whose activation
  // probability is below the significance threshold, in the phase matching
  // each node's type.
  void approximate_sops() {
    if (options_.significance_threshold <= 0.0) return;
    for (NodeId id = 0; id < net_.num_nodes(); ++id) {
      const Node& n = net_.node(id);
      if (n.kind != NodeKind::kLogic) continue;
      NodeType t = type_of(id);
      if (t == NodeType::kEx && !options_.reduce_ex_nodes) continue;
      Sop phase = phase_sop_of(n.sop, t);
      std::vector<double> probs = fanin_probs(id);

      Sop kept(phase.num_vars());
      Sop dropped(phase.num_vars());

      // At type-0/1 nodes, first discard cubes that bind a DC-typed fanin:
      // the type assignment judged those fanins barely observable here, and
      // dropping such cubes is what lets entire DC cones disappear from the
      // approximate circuit. (Dropping always shrinks the phase-matched
      // cover, so the local approximation direction stays correct.)
      std::vector<NodeType> ft = fanin_types(id);
      auto binds_dc = [&](const Cube& c) {
        if (!options_.drop_dc_cubes) return false;
        if (t != NodeType::kZero && t != NodeType::kOne) return false;
        for (size_t k = 0; k < ft.size(); ++k) {
          if (ft[k] == NodeType::kDc &&
              c.get(static_cast<int>(k)) != LitCode::kFree) {
            return true;
          }
        }
        return false;
      };
      // Conformance-aware stage 1: at typed nodes, cubes that do not
      // conform to the fanin types cannot compose correctly once the fanins
      // are approximated (paper's theorem premise), so they are dropped
      // along with the insignificant ones. Cubes on all-EX fanins always
      // conform, so this only bites where it matters.
      auto nonconforming = [&](const Cube& c) {
        if (!options_.conformance_filter) return false;
        if (t != NodeType::kZero && t != NodeType::kOne) return false;
        return !cube_conforms(c, ft);
      };

      // Significance of a cube = its share of the node's total cube
      // probability mass (the paper's "contribution to the Boolean
      // function"; cubes with large support sets contribute least).
      double total = 0.0;
      for (const Cube& c : phase.cubes()) {
        total += cube_probability(c, probs);
      }
      if (total <= 0.0) continue;
      const Cube* best = nullptr;
      double best_p = -1.0;
      for (const Cube& c : phase.cubes()) {
        double p = cube_probability(c, probs);
        if (p > best_p) {
          best_p = p;
          best = &c;
        }
        if (!binds_dc(c) && !nonconforming(c) &&
            p / total >= options_.significance_threshold) {
          kept.add_cube(c);
        } else {
          dropped.add_cube(c);
        }
      }
      // Never empty the node entirely; rescue the likeliest cube.
      if (kept.empty() && best != nullptr) {
        kept.add_cube(*best);
        Sop rest(phase.num_vars());
        for (const Cube& c : dropped.cubes()) {
          if (!(c == *best)) rest.add_cube(c);
        }
        dropped = std::move(rest);
      }
      if (dropped.empty()) continue;

      // Realize the reduction in the stored on-set form, treating the
      // dropped minterms as don't cares so two-level minimization can
      // exploit them. For a type-0 node the dropped zero-phase cubes become
      // don't cares of the on-set directly (G grows: 0-approximation); for
      // the on-phase node types the kept cover may only absorb dropped
      // minterms (G stays within the kept region plus dropped space, still
      // inside the original on-set: 1-approximation).
      Sop candidate =
          t == NodeType::kZero
              ? (n.sop.num_vars() <= 12 ? minimize(n.sop, dropped)
                                        : onset_from_phase(kept, t))
              : (kept.num_vars() <= 12 ? minimize(kept, dropped) : kept);
      // Cost guard: never store a representation costlier than the
      // original node (phase conversion can inflate cube counts).
      int orig_cost = n.sop.literal_count() + n.sop.num_cubes();
      int cand_cost = candidate.literal_count() + candidate.num_cubes();
      if (cand_cost >= orig_cost) continue;
      stage1_phase_[id] = kept;
      approx_.set_sop(id, std::move(candidate));
    }
  }

  // Per-node correctness relative to the node's type (paper Sec. 2.2): a
  // type-1 node needs G => F globally, a type-0 node F => G, EX equality,
  // DC is unconstrained.
  bool node_correct(NodeType t, BddManager& mgr, BddManager::Ref orig_ref,
                    BddManager::Ref approx_ref) const {
    switch (t) {
      case NodeType::kDc:
        return true;
      case NodeType::kEx:
        return orig_ref == approx_ref;
      case NodeType::kOne:
        return mgr.implies(approx_ref, orig_ref);
      case NodeType::kZero:
        return mgr.implies(orig_ref, approx_ref);
    }
    return false;
  }

  // Restores every node in the cone of `root` to its exact original
  // function. Exactness (G == F) satisfies the correctness requirement of
  // every node type, so a restored cone can never regress another PO's
  // node-level correctness.
  void restore_cone(NodeId root) {
    for (NodeId id : cone_of(root)) {
      const Node& n = net_.node(id);
      if (n.kind != NodeKind::kLogic) continue;
      approx_.set_sop(id, n.sop);
      repair_state_[id] = 2;
    }
  }

  // Repairs one node: first ODC-based cube selection, then exact selection
  // (guaranteed under conforming fanins), tracked per node so repeated
  // repairs escalate.
  void fix_node(NodeId id, int& repairs) {
    NodeType t = type_of(id);
    ++repairs;
    if (t == NodeType::kEx) {
      if (repair_state_[id] == 0) {
        approx_.set_sop(id, net_.node(id).sop);  // restore exact function
        repair_state_[id] = 1;
      } else {
        // Equality needs exact fanins too: restore the whole fanin cone.
        restore_cone(id);
      }
      return;
    }
    std::vector<NodeType> ft = fanin_types(id);
    Sop full_phase = phase_sop_of(net_.node(id).sop, t);
    const Sop& phase = stage1_phase_[id].has_value() ? *stage1_phase_[id]
                                                     : full_phase;
    if (repair_state_[id] == 0 && options_.use_odc_repair) {
      std::vector<double> probs = fanin_probs(id);
      auto odc = odc_cube_selection(full_phase, ft, &probs);
      repair_state_[id] = 1;
      if (odc.has_value()) {
        approx_.set_sop(id, onset_from_phase(
                                significance_filter(*odc, probs), t));
        return;
      }
    }
    approx_.set_sop(id, onset_from_phase(exact_cube_selection(phase, ft), t));
    repair_state_[id] = 2;
  }

  // Re-applies the stage-1 significance rule to a repair candidate so local
  // repairs do not silently undo stage-1's area reduction.
  Sop significance_filter(const Sop& cover, const std::vector<double>& probs) {
    if (cover.num_cubes() <= 1 || options_.significance_threshold <= 0.0) {
      return cover;
    }
    double total = 0.0;
    for (const Cube& c : cover.cubes()) total += cube_probability(c, probs);
    if (total <= 0.0) return cover;
    Sop kept(cover.num_vars());
    const Cube* best = nullptr;
    double best_p = -1.0;
    for (const Cube& c : cover.cubes()) {
      double p = cube_probability(c, probs);
      if (p > best_p) {
        best_p = p;
        best = &c;
      }
      if (p / total >= options_.significance_threshold) kept.add_cube(c);
    }
    if (kept.empty() && best != nullptr) kept.add_cube(*best);
    return kept;
  }

  // Last-resort repair with a construction-level guarantee: exact-select
  // every type-0/1 node in the cone and restore every EX node.
  void exact_fallback(NodeId root) {
    for (NodeId id : cone_of(root)) {
      const Node& n = net_.node(id);
      if (n.kind != NodeKind::kLogic) continue;
      NodeType t = type_of(id);
      if (t == NodeType::kEx) {
        approx_.set_sop(id, n.sop);
      } else if (t != NodeType::kDc) {
        Sop phase = stage1_phase_[id].has_value() ? *stage1_phase_[id]
                                                  : phase_sop_of(n.sop, t);
        approx_.set_sop(
            id,
            onset_from_phase(exact_cube_selection(phase, fanin_types(id)),
                             t));
      }
      repair_state_[id] = 2;
    }
  }

  // Backward analysis: nodes that are incorrectly approximated although
  // every fanin is correct (paper: "sources of incorrect approximation").
  // Prefers the shared oracle's BDDs; falls back to simulation seeded by
  // the SAT counterexample on BDD-hostile networks. Returns nullopt when
  // the BDD node checks overflow the budget, so the caller restores the
  // cone.
  std::optional<std::vector<NodeId>> find_sources(NodeId root,
                                                  ApproxOracle& oracle) {
    std::vector<bool> correct(net_.num_nodes(), true);
    if (oracle.using_bdds()) {
      try {
        for (NodeId id : cone_of(root)) {
          const Node& n = net_.node(id);
          if (n.kind != NodeKind::kLogic) continue;
          correct[id] =
              node_correct(type_of(id), oracle.manager(), oracle.orig_ref(id),
                           oracle.approx_ref(id));
        }
      } catch (const BddOverflow&) {
        return std::nullopt;
      }
    } else {
      // BDD-hostile network: screen node correctness with simulation seeded
      // by the SAT counterexample. A simulated violation is a REAL
      // violation (no false sources); masked violations simply surface in a
      // later repair round with a fresh counterexample.
      const std::vector<uint8_t>& cex = oracle.last_counterexample();
      const int words = 8;
      PatternSet patterns =
          PatternSet::random(net_.num_pis(), words, 0x0CE5 + sim_rounds_++);
      if (!cex.empty()) {
        for (int i = 0; i < net_.num_pis(); ++i) {
          uint64_t w = patterns.word(i, 0);
          patterns.set_word(i, 0, cex[i] ? (w | 1) : (w & ~1ULL));
        }
      }
      Simulator sim_orig(net_);
      Simulator sim_approx(approx_);
      sim_orig.run(patterns);
      sim_approx.run(patterns);
      for (NodeId id : cone_of(root)) {
        const Node& n = net_.node(id);
        if (n.kind != NodeKind::kLogic) continue;
        const auto& fw = sim_orig.value(id);
        const auto& gw = sim_approx.value(id);
        uint64_t violation = 0;
        for (int w = 0; w < words; ++w) {
          switch (type_of(id)) {
            case NodeType::kDc:
              break;
            case NodeType::kEx:
              violation |= fw[w] ^ gw[w];
              break;
            case NodeType::kOne:
              violation |= gw[w] & ~fw[w];
              break;
            case NodeType::kZero:
              violation |= fw[w] & ~gw[w];
              break;
          }
          if (violation) break;
        }
        correct[id] = violation == 0;
      }
    }
    std::vector<NodeId> sources;
    for (NodeId id : cone_of(root)) {
      if (correct[id]) continue;
      bool fanins_ok = true;
      for (NodeId f : net_.node(id).fanins) {
        if (!correct[f]) {
          fanins_ok = false;
          break;
        }
      }
      if (fanins_ok) sources.push_back(id);
    }
    return sources;
  }

  // Phase A of stage 2: repeated global simulation screening. Each round
  // simulates both networks once on fresh patterns, marks every node whose
  // sampled behaviour violates its type contract, and repairs the deepest
  // violators. Terminates when a round finds nothing (or everything
  // repairable is final).
  void simulation_repair_rounds(int& repairs) {
    const int words = 16;
    std::vector<NodeId> po_roots;
    for (const PrimaryOutput& po : net_.pos()) po_roots.push_back(po.driver);
    // One simulator pair for all rounds: run() re-reads every SOP (so the
    // approx side observes fix_node's set_sop mutations, tracked by the
    // network version stamps) — only the pattern set changes per round.
    Simulator sim_orig(net_);
    Simulator sim_approx(approx_);
    for (int round = 0; round < 64; ++round) {
      PatternSet patterns = PatternSet::random(
          net_.num_pis(), words, 0x51AB + 977 * sim_rounds_++);
      sim_orig.run(patterns);
      sim_approx.run(patterns);

      auto violation_of = [&](NodeId id, NodeType t, int w) -> uint64_t {
        uint64_t f = sim_orig.value(id)[w];
        uint64_t g = sim_approx.value(id)[w];
        switch (t) {
          case NodeType::kDc:
            return 0;
          case NodeType::kEx:
            return f ^ g;
          case NodeType::kOne:
            return g & ~f;
          case NodeType::kZero:
            return f & ~g;
        }
        return 0;
      };

      // PO-level failures first: a node-level violation that never shows at
      // a failing output is exactly the global-ODC slack the paper exploits
      // and must NOT be repaired.
      std::vector<uint64_t> fail(words, 0);
      std::vector<NodeId> failing_roots;
      for (int po = 0; po < net_.num_pos(); ++po) {
        NodeId drv = net_.po(po).driver;
        NodeType dir_type = type_for_direction(directions_[po]);
        bool failed = false;
        for (int w = 0; w < words; ++w) {
          uint64_t v = violation_of(drv, dir_type, w);
          if (v) {
            fail[w] |= v;
            failed = true;
          }
        }
        if (failed) failing_roots.push_back(drv);
      }
      if (failing_roots.empty()) return;

      // Within the failing cones, a node is suspect when its violation
      // overlaps a pattern on which some PO failed. This cone lives in its
      // own buffer: fix_node below re-enters cone_of() for restores.
      view_->cone_of(failing_roots, cone_scratch_, roots_cone_buf_);
      const std::vector<NodeId>& cone = roots_cone_buf_;
      std::vector<bool> correct(net_.num_nodes(), true);
      for (NodeId id : cone) {
        const Node& n = net_.node(id);
        if (n.kind != NodeKind::kLogic) continue;
        for (int w = 0; w < words; ++w) {
          if (violation_of(id, type_of(id), w) & fail[w]) {
            correct[id] = false;
            break;
          }
        }
      }
      bool progress = false;
      for (NodeId id : cone) {
        if (correct[id]) continue;
        bool fanins_ok = true;
        for (NodeId f : net_.node(id).fanins) {
          if (!correct[f]) {
            fanins_ok = false;
            break;
          }
        }
        if (!fanins_ok || repair_state_[id] >= 2) continue;
        fix_node(id, repairs);
        progress = true;
      }
      if (!progress) return;
    }
  }


  // Stage 2 (paper: "Ensuring correctness") for one incorrect PO.
  bool ensure_correctness(int po, ApproxOracle& oracle, int& repairs) {
    NodeId root = net_.po(po).driver;
    auto bail_out = [&]() {
      exact_fallback(root);
      ++repairs;
      oracle.refresh_approx();
      if (oracle.verify(po, directions_[po])) return true;
      // Ultimate fallback: give up approximating this cone entirely. The
      // restored cone computes the exact function, which verifies trivially.
      restore_cone(root);
      oracle.refresh_approx();
      return oracle.verify(po, directions_[po]);
    };
    for (int round = 0; round < options_.max_repair_rounds; ++round) {
      if (oracle.verify(po, directions_[po])) return true;
      if (!oracle.using_bdds() && oracle.last_counterexample().empty()) {
        // The SAT query hit its conflict budget (no counterexample to guide
        // a repair): go straight to the guaranteed fallback.
        return bail_out();
      }
      std::optional<std::vector<NodeId>> sources = find_sources(root, oracle);
      if (!sources.has_value() || sources->empty()) {
        // BDD budget exhausted or no identifiable source: guaranteed
        // fallback.
        return bail_out();
      }
      bool progress = false;
      for (NodeId id : *sources) {
        if (repair_state_[id] >= 2) continue;  // already final
        fix_node(id, repairs);
        progress = true;
      }
      if (!progress) return bail_out();
      oracle.refresh_approx();
    }
    return bail_out();
  }

  // Single-root cone query over the shared structure snapshot (approx_ is
  // an id-preserving clone of net_, so their cones coincide); reuses one
  // scratch + buffer, so repeated repair-loop queries allocate nothing
  // once warmed. The returned reference is invalidated by the next call.
  const std::vector<NodeId>& cone_of(NodeId root) {
    view_->cone_of(&root, 1, cone_scratch_, cone_buf_);
    return cone_buf_;
  }

  const Network& net_;
  const std::vector<ApproxDirection>& directions_;
  const ApproxOptions& options_;
  ObservabilityAnalysis obs_;
  Network approx_;
  const TypeAssignment* types_ = nullptr;
  std::vector<uint8_t> repair_state_;
  // Phase-matched covers kept by stage 1 (per node): repairs re-select from
  // these instead of the full original covers, preserving stage-1's area
  // gains (any subset of the phase cover composes correctly through the
  // conformance theorem).
  std::vector<std::optional<Sop>> stage1_phase_;
  int sim_rounds_ = 0;

  // Structure snapshot of net_ (never mutated; approx_ only sees set_sop)
  // plus cone-query scratch shared by the repair stages.
  std::shared_ptr<const TopologyView> view_;
  ConeScratch cone_scratch_;
  std::vector<NodeId> cone_buf_;        ///< cone_of(root) result
  std::vector<NodeId> roots_cone_buf_;  ///< multi-root cone (sim repair)
};

}  // namespace

ApproxResult synthesize_approximation(
    const Network& net, const std::vector<ApproxDirection>& directions,
    const ApproxOptions& options) {
  if (directions.size() != static_cast<size_t>(net.num_pos())) {
    throw std::logic_error(
        "synthesize_approximation: one direction per PO required");
  }
  SynthesisEngine engine(net, directions, options);
  return engine.run();
}

}  // namespace apx
