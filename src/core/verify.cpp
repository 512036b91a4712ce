#include "core/verify.hpp"

#include <algorithm>

#include "core/trace.hpp"
#include "network/ordering.hpp"
#include "sat/encode.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

// Random patterns behind the sampled approximation percentage once the BDDs
// overflow their budget.
constexpr int kFallbackWords = 512;
constexpr uint64_t kFallbackSeed = 0xA99C0;

// Sampled approximation percentage of g against f over the same patterns:
// |f & g| / |f| for 1-approximations, |~f & ~g| / |~f| for 0-approximations.
double sampled_approximation_pct(const WordSpan& fw, const WordSpan& gw,
                                 ApproxDirection direction) {
  const int W = fw.num_words();
  int64_t denom, num;
  if (direction == ApproxDirection::kOneApprox) {
    denom = popcount_words(fw.data(), W, ~0ULL);
    num = popcount_and(fw.data(), gw.data(), W, ~0ULL);
  } else {
    // Off-set counts via complements: popcount(~f) = 64W - popcount(f),
    // and popcount(~f & ~g) = popcount(~f) - popcount(~f & g).
    denom = 64ll * W - popcount_words(fw.data(), W, ~0ULL);
    num = denom - popcount_andnot(fw.data(), gw.data(), W, ~0ULL);
  }
  return denom > 0 ? static_cast<double>(num) / static_cast<double>(denom)
                   : 1.0;
}

}  // namespace

bool implication_holds_for(ApproxDirection d, bool g_implies_f,
                           bool f_implies_g) {
  return d == ApproxDirection::kOneApprox ? g_implies_f : f_implies_g;
}

// SAT and simulation state is kept out of the header via this impl struct.
struct ApproxOracleState {
  // Shared SAT instance encoding both networks. The original side is
  // encoded plainly (it never changes); the approx side uses the
  // activation-guarded incremental encoding so repairs re-encode dirty
  // cones in place instead of rebuilding the solver.
  std::optional<SatSolver> sat;
  std::vector<int> pi_vars;
  std::vector<int> orig_vars;
  IncrementalEncoding approx_enc;

  // Shared simulation for percentage estimates.
  std::optional<Simulator> sim_orig;
  std::optional<Simulator> sim_approx;
};

ApproxOracle::ApproxOracle(const Network& original, const Network& approx,
                           size_t bdd_budget)
    : original_(original),
      approx_(approx),
      budget_(bdd_budget),
      state_(std::make_unique<ApproxOracleState>()) {
  // The original network never mutates under the oracle, so its view is
  // pinned once here (cone_structurally_identical walks it per verify()).
  orig_view_ = original_.topology();
  build();
}

ApproxOracle::~ApproxOracle() {
  // Lifetime stats fold into the process-wide trace registry on teardown;
  // the per-oracle Stats struct stays the precise API for benches/tests.
  if (!trace::enabled()) return;
  trace::counter("oracle.structural_hits").add(stats_.structural_hits);
  trace::counter("oracle.bdd_queries").add(stats_.bdd_queries);
  trace::counter("oracle.sat_queries").add(stats_.sat_queries);
  trace::counter("oracle.incremental_refreshes")
      .add(stats_.incremental_refreshes);
  trace::counter("oracle.full_rebuilds").add(stats_.full_rebuilds);
  trace::counter("oracle.bdd_nodes_rebuilt").add(stats_.bdd_nodes_rebuilt);
  trace::counter("oracle.sat_nodes_reencoded")
      .add(stats_.sat_nodes_reencoded);
  trace::counter("oracle.gc_runs").add(stats_.gc_runs);
}

// Full rebuild: discards the SAT instance and the approx-side simulator
// along with every BDD. The constructor comes through here; refresh_approx()
// only lands here after a structural mutation.
void ApproxOracle::build() {
  trace::Span span("oracle.build");
  ++stats_.full_rebuilds;
  state_->sat.reset();
  state_->sim_approx.reset();
  build_bdds();
}

void ApproxOracle::build_bdds() {
  bdd_ok_ = false;
  approx_synced_version_ = approx_.version();
  if (bdd_hostile_) return;  // earlier build hit the budget: stay on SAT
  try {
    // Both networks share PIs, so the original's order (the stable one:
    // the approx side is an evolving clone, and its near-identical cones
    // share nodes with the original's under any order) seeds the manager.
    // The OrderCache is consulted by content hash of the original, so a
    // rebuild — the repair loop refreshes this oracle many times, and
    // one-shot queries and repeated flows build fresh oracles over the
    // same pair — reuses the previously converged order and arms the
    // reorder budget instead of re-sifting from the structural order. The
    // hash is recomputed on every build, so any mutation of the original
    // (including structural ones) keys a different entry by construction.
    uint64_t order_key = 0;
    size_t seed_budget = 0;
    mgr_.emplace(original_.num_pis(), budget_,
                 cached_or_static_order(original_, &order_key, &seed_budget));
    mgr_->set_reorder_budget(seed_budget);
    std::vector<NodeId> orig_roots, approx_roots;
    for (const PrimaryOutput& po : original_.pos()) {
      orig_roots.push_back(po.driver);
    }
    for (const PrimaryOutput& po : approx_.pos()) {
      approx_roots.push_back(po.driver);
    }
    hostile_on_original_ = true;  // until the original's cones are built
    orig_refs_ = build_cone_bdds(*mgr_, original_, orig_roots);
    hostile_on_original_ = false;
    // Register each held vector once it is live so any reorder — during
    // the second build or later queries — rewrites it in place.
    mgr_->register_external_refs(&orig_refs_);
    approx_refs_ = build_cone_bdds(*mgr_, approx_, approx_roots);
    mgr_->register_external_refs(&approx_refs_);
    nodes_after_build_ = mgr_->live_nodes();
    bdd_ok_ = true;
    OrderCache::instance().store(
        order_key, {mgr_->export_order(), mgr_->live_nodes()});
  } catch (const BddOverflow&) {
    mgr_.reset();
    orig_refs_.clear();
    approx_refs_.clear();
    bdd_hostile_ = true;
    hostile_version_ = approx_.version();
  }
}

void ApproxOracle::refresh_approx() {
  trace::Span span("oracle.refresh");
  if (approx_.structure_version() > approx_synced_version_) {
    // Node ids / fanins / PO drivers moved: cone membership and the
    // cached orders are stale, so incremental repair doesn't apply.
    build();
    return;
  }
  std::vector<NodeId> dirty = approx_.dirty_since(approx_synced_version_);
  approx_synced_version_ = approx_.version();
  if (dirty.empty()) return;
  ++stats_.incremental_refreshes;
  state_->sim_approx.reset();  // sampled estimates must see the new SOPs
  std::vector<NodeId> affected = fanout_closure(dirty);
  refresh_bdds(affected);
  refresh_sat(affected);
}

void ApproxOracle::ensure_structure_caches() {
  if (approx_view_ != nullptr &&
      approx_view_->structure_version() == approx_.structure_version()) {
    return;
  }
  approx_view_ = approx_.topology();
}

// Dirty nodes plus their transitive fanout, in topological order: exactly
// the nodes whose global functions can have changed. Walks the shared
// view's CSR fanout arrays with epoch-stamped marks; ordering by cached
// topo positions replaces the legacy full-topo filter scan.
std::vector<NodeId> ApproxOracle::fanout_closure(
    const std::vector<NodeId>& dirty) {
  ensure_structure_caches();
  const TopologyView& view = *approx_view_;
  cone_scratch_.marks.begin(approx_.num_nodes());
  auto& stack = cone_scratch_.stack;
  stack.clear();
  std::vector<NodeId> result;
  for (NodeId id : dirty) {
    if (cone_scratch_.marks.insert(id)) {
      stack.push_back(id);
      result.push_back(id);
    }
  }
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    for (NodeId out : view.fanouts(id)) {
      if (cone_scratch_.marks.insert(out)) {
        stack.push_back(out);
        result.push_back(out);
      }
    }
  }
  std::sort(result.begin(), result.end(), [&view](NodeId a, NodeId b) {
    return view.topo_position(a) < view.topo_position(b);
  });
  return result;
}

void ApproxOracle::refresh_bdds(const std::vector<NodeId>& affected) {
  if (!bdd_ok_) return;
  try {
    std::vector<BddManager::Ref> fanin_refs;
    for (NodeId id : affected) {
      if (approx_refs_[id] == kNoBddRef) continue;  // outside every PO cone
      const Node& n = approx_.node(id);
      if (n.kind != NodeKind::kLogic) continue;
      fanin_refs.clear();
      for (NodeId f : n.fanins) fanin_refs.push_back(approx_refs_[f]);
      approx_refs_[id] = eval_sop_bdd(*mgr_, n.sop, fanin_refs);
      ++stats_.bdd_nodes_rebuilt;
      // Safe point: both held vectors are registered, so a reorder here
      // rewrites them in place; fanin_refs is refilled per node.
      if (mgr_->reorder_pending()) mgr_->reorder();
    }
    maybe_collect();
  } catch (const BddOverflow&) {
    // The arena may simply be full of garbage from replaced cones: retry
    // from an empty manager (which marks the oracle BDD-hostile if even a
    // clean build overflows). The SAT/simulation state is untouched.
    build_bdds();
  }
}

void ApproxOracle::maybe_collect() {
  size_t n = mgr_->live_nodes();
  if (n < 4096 || n < 2 * nodes_after_build_) return;
  std::vector<BddManager::Ref> roots;
  roots.reserve(orig_refs_.size() + approx_refs_.size());
  roots.insert(roots.end(), orig_refs_.begin(), orig_refs_.end());
  roots.insert(roots.end(), approx_refs_.begin(), approx_refs_.end());
  std::vector<BddManager::Ref> remap = mgr_->garbage_collect(roots);
  for (BddManager::Ref& r : orig_refs_) {
    if (r != kNoBddRef) r = remap[r];
  }
  for (BddManager::Ref& r : approx_refs_) {
    if (r != kNoBddRef) r = remap[r];
  }
  nodes_after_build_ = mgr_->live_nodes();  // live size = new trigger base
  ++stats_.gc_runs;
}

void ApproxOracle::ensure_sat() {
  if (state_->sat.has_value()) return;
  state_->sat.emplace();
  SatSolver& solver = *state_->sat;
  state_->pi_vars.clear();
  for (int i = 0; i < original_.num_pis(); ++i) {
    state_->pi_vars.push_back(solver.new_var());
  }
  state_->orig_vars = encode_network(solver, original_, state_->pi_vars);
  state_->approx_enc =
      encode_network_incremental(solver, approx_, state_->pi_vars);
}

void ApproxOracle::refresh_sat(const std::vector<NodeId>& affected) {
  // Not yet constructed: ensure_sat() will encode the current network
  // state when the first query needs it.
  if (!state_->sat.has_value()) return;
  reencode_nodes(*state_->sat, approx_, affected, state_->approx_enc);
  stats_.sat_nodes_reencoded += affected.size();
}

const void* ApproxOracle::sat_identity() const {
  return state_->sat.has_value() ? static_cast<const void*>(&*state_->sat)
                                 : nullptr;
}

// During synthesis the approximate network is an id-preserving clone of the
// original; when the PO cone is structurally untouched (e.g. after a cone
// restore) the implication holds syntactically and no solver is needed.
bool ApproxOracle::cone_structurally_identical(int po) const {
  if (original_.num_nodes() != approx_.num_nodes()) return false;
  NodeId root = original_.po(po).driver;
  if (approx_.po(po).driver != root) return false;
  orig_view_->cone_of(&root, 1, cone_scratch_, cone_buf_);
  for (NodeId id : cone_buf_) {
    const Node& a = original_.node(id);
    const Node& b = approx_.node(id);
    if (a.kind != b.kind || a.fanins != b.fanins || !(a.sop == b.sop)) {
      return false;
    }
  }
  return true;
}

bool ApproxOracle::verify(int po, ApproxDirection direction) {
  trace::Span span("oracle.verify");
  if (cone_structurally_identical(po)) {
    ++stats_.structural_hits;
    return true;
  }
  if (bdd_ok_) {
    try {
      BddManager::Ref f = orig_refs_[original_.po(po).driver];
      BddManager::Ref g = approx_refs_[approx_.po(po).driver];
      ++stats_.bdd_queries;
      bool holds = direction == ApproxDirection::kOneApprox
                       ? mgr_->implies(g, f)
                       : mgr_->implies(f, g);
      // Safe point: the query's transient nodes are garbage now, and the
      // held vectors are registered.
      if (mgr_->reorder_pending()) mgr_->reorder();
      return holds;
    } catch (const BddOverflow&) {
      bdd_ok_ = false;  // fall through to SAT below
    }
  }
  trace::Span sat_span("oracle.sat_fallback");
  ensure_sat();
  ++stats_.sat_queries;
  // A repeat of the query that last exhausted its budget (same PO,
  // direction, network version and budget) is answered "not verified"
  // without solving. This deliberately gives up the retry: the solver keeps
  // its learned clauses between solves, so a second attempt could finish
  // within the budget, proving the implication or yielding a counterexample
  // to guide repair. Treating the repeat as still unknown only ever sends
  // the caller down the conservative path (a more exact cone).
  const UnknownQuery query{po, direction, approx_.version(),
                           sat_conflict_budget_};
  if (last_unknown_ == query) {
    last_cex_.clear();
    return false;
  }
  Lit f(state_->orig_vars[original_.po(po).driver], false);
  Lit g(state_->approx_enc.node_var[approx_.po(po).driver], false);
  // Activation assumptions select the current approx-side encoding;
  // kOneApprox: g => f fails iff (g & ~f) satisfiable.
  std::vector<Lit> assumptions;
  activation_assumptions(state_->approx_enc, assumptions);
  if (direction == ApproxDirection::kOneApprox) {
    assumptions.push_back(g);
    assumptions.push_back(~f);
  } else {
    assumptions.push_back(f);
    assumptions.push_back(~g);
  }
  last_cex_.clear();
  SatResult r = state_->sat->solve(assumptions, sat_conflict_budget_);
  if (r == SatResult::kUnsat) return true;
  if (r == SatResult::kSat) {
    last_cex_.resize(original_.num_pis());
    for (int i = 0; i < original_.num_pis(); ++i) {
      last_cex_[i] = state_->sat->model_value(state_->pi_vars[i]) ? 1 : 0;
    }
  }
  // kUnknown (budget exhausted) is treated as "not verified": callers in
  // the synthesis flow respond by making the cone more exact, which
  // ultimately resolves through the structural fast path above.
  if (r == SatResult::kUnknown) last_unknown_ = query;
  return false;
}

double ApproxOracle::approximation_pct(int po, ApproxDirection direction) {
  // Without BDDs, rebuild once if a fresh oracle's build could succeed:
  // after a query-time overflow dropped them (no build failed), or when the
  // last failed build overflowed on the approx side of a network that has
  // been mutated since. A build that overflowed on the original alone
  // would overflow again from the same order. So the answer is exact
  // whenever a from-scratch build of the current pair fits the budget.
  if (!bdd_ok_ &&
      (!bdd_hostile_ || (!hostile_on_original_ &&
                         approx_.version() != hostile_version_))) {
    bdd_hostile_ = false;
    build_bdds();
  }
  if (bdd_ok_) {
    try {
      if (mgr_->reorder_pending()) mgr_->reorder();
      double pf = mgr_->sat_fraction(orig_refs_[original_.po(po).driver]);
      double pg = mgr_->sat_fraction(approx_refs_[approx_.po(po).driver]);
      if (direction == ApproxDirection::kOneApprox) {
        return pf > 0.0 ? pg / pf : 1.0;
      }
      return pf < 1.0 ? (1.0 - pg) / (1.0 - pf) : 1.0;
    } catch (const BddOverflow&) {
      bdd_ok_ = false;
    }
  }
  // Sampled estimate over shared random patterns (simulators are cached:
  // the original's never changes, the approx side resets on refresh).
  if (!state_->sim_orig.has_value()) {
    state_->sim_orig.emplace(original_);
    state_->sim_orig->run(
        PatternSet::random(original_.num_pis(), kFallbackWords, kFallbackSeed));
  }
  if (!state_->sim_approx.has_value()) {
    state_->sim_approx.emplace(approx_);
    state_->sim_approx->run(
        PatternSet::random(approx_.num_pis(), kFallbackWords, kFallbackSeed));
  }
  return sampled_approximation_pct(
      state_->sim_orig->value(original_.po(po).driver),
      state_->sim_approx->value(approx_.po(po).driver), direction);
}

double weighted_approximation_percentage(const Network& original,
                                         const Network& approx, int po,
                                         ApproxDirection direction,
                                         const std::vector<double>& pi_probs,
                                         int words, uint64_t seed) {
  Simulator sim_f(original);
  Simulator sim_g(approx);
  PatternSet patterns = PatternSet::biased(pi_probs, words, seed);
  sim_f.run(patterns);
  sim_g.run(patterns);
  return sampled_approximation_pct(sim_f.value(original.po(po).driver),
                                   sim_g.value(approx.po(po).driver),
                                   direction);
}

bool verify_po_approximation(const Network& original, const Network& approx,
                             int po, ApproxDirection direction,
                             size_t bdd_budget) {
  ApproxOracle oracle(original, approx, bdd_budget);
  return oracle.verify(po, direction);
}

double approximation_percentage(const Network& original,
                                const Network& approx, int po,
                                ApproxDirection direction, size_t bdd_budget) {
  ApproxOracle oracle(original, approx, bdd_budget);
  return oracle.approximation_pct(po, direction);
}

}  // namespace apx
