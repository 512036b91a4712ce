#include "aig/rewrite.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "aig/npn.hpp"
#include "tt/truth_table.hpp"

namespace apx::aig {
namespace {

// ---- uint16 truth-table helpers (database construction) ----

uint16_t cofactor16(uint16_t f, int v, bool value) {
  const uint16_t p = tt16::kVar[v];
  const int w = 1 << v;
  if (value) {
    const uint16_t half = static_cast<uint16_t>(f & p);
    return static_cast<uint16_t>(half | (half >> w));
  }
  const uint16_t half = static_cast<uint16_t>(f & ~p);
  return static_cast<uint16_t>(half | (half << w));
}

TruthTable to_truth_table(uint16_t f) {
  TruthTable t(4);
  for (uint64_t m = 0; m < 16; ++m) t.set(m, ((f >> m) & 1) != 0);
  return t;
}

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

/// Factored ISOP candidate: balanced AND tree per cube, balanced OR tree
/// over cubes.
Lit build_from_sop(Aig* g, const Lit xs[4], const Sop& sop) {
  std::vector<Lit> cube_lits;
  cube_lits.reserve(sop.num_cubes());
  for (const Cube& c : sop.cubes()) {
    std::vector<Lit> lits;
    for (int v = 0; v < 4; ++v) {
      const LitCode code = c.get(v);
      if (code == LitCode::kPos) lits.push_back(xs[v]);
      if (code == LitCode::kNeg) lits.push_back(lit_not(xs[v]));
    }
    cube_lits.push_back(reduce_balanced(g, std::move(lits), /*is_and=*/true));
  }
  return reduce_balanced(g, std::move(cube_lits), /*is_and=*/false);
}

/// Memoized Shannon decomposition candidate; the memo persists across
/// classes (all candidates share one strashing arena, so sub-functions are
/// shared structurally AND by table).
Lit build_shannon(Aig* g, const Lit xs[4], uint16_t f,
                  std::unordered_map<uint16_t, Lit>* memo) {
  if (f == 0x0000) return kLitFalse;
  if (f == 0xFFFF) return kLitTrue;
  auto it = memo->find(f);
  if (it != memo->end()) return it->second;

  int v = 0;
  while (tt16::flip_var(f, v) == f) ++v;
  Lit result;
  if (f == tt16::kVar[v]) {
    result = xs[v];
  } else if (f == static_cast<uint16_t>(~tt16::kVar[v] & 0xFFFF)) {
    result = lit_not(xs[v]);
  } else {
    const Lit hi = build_shannon(g, xs, cofactor16(f, v, true), memo);
    const Lit lo = build_shannon(g, xs, cofactor16(f, v, false), memo);
    result = g->create_mux(xs[v], hi, lo);
  }
  memo->emplace(f, result);
  return result;
}

int cone_size(const Aig& g, Lit out) {
  std::vector<char> mark(g.num_nodes(), 0);
  std::vector<uint32_t> stack{lit_node(out)};
  mark[lit_node(out)] = 1;
  int count = 0;
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (!g.is_and(id)) continue;
    ++count;
    for (Lit f : {g.fanin0(id), g.fanin1(id)}) {
      if (!mark[lit_node(f)]) {
        mark[lit_node(f)] = 1;
        stack.push_back(lit_node(f));
      }
    }
  }
  return count;
}

/// Extracts the cone of `out` from the shared scratch arena as a
/// straight-line database entry (ascending scratch ids are already
/// topological).
RewriteDb::Entry extract_entry(const Aig& g, Lit out) {
  std::vector<char> mark(g.num_nodes(), 0);
  std::vector<uint32_t> stack{lit_node(out)};
  mark[lit_node(out)] = 1;
  std::vector<uint32_t> cone;
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (!g.is_and(id)) continue;
    cone.push_back(id);
    for (Lit f : {g.fanin0(id), g.fanin1(id)}) {
      if (!mark[lit_node(f)]) {
        mark[lit_node(f)] = 1;
        stack.push_back(lit_node(f));
      }
    }
  }
  std::sort(cone.begin(), cone.end());

  std::unordered_map<uint32_t, uint16_t> db_node;
  db_node.emplace(0, 0);
  for (int i = 0; i < g.num_pis(); ++i) {
    db_node.emplace(g.pi_node(i), static_cast<uint16_t>(1 + i));
  }
  RewriteDb::Entry e;
  auto to_db_lit = [&](Lit l) {
    return static_cast<uint16_t>((db_node.at(lit_node(l)) << 1) |
                                 (l & 1u));
  };
  for (uint32_t id : cone) {
    const uint16_t slot = static_cast<uint16_t>(5 + e.ands.size());
    e.ands.push_back({to_db_lit(g.fanin0(id)), to_db_lit(g.fanin1(id))});
    db_node.emplace(id, slot);
  }
  e.out = to_db_lit(out);
  return e;
}

/// Exhaustive simulation of a database entry; returns its truth table.
uint16_t simulate_entry(const RewriteDb::Entry& e) {
  std::vector<uint16_t> val(5 + e.ands.size(), 0);
  for (int i = 0; i < 4; ++i) val[1 + i] = tt16::kVar[i];
  auto lit_val = [&](uint16_t l) {
    return static_cast<uint16_t>(val[l >> 1] ^ ((l & 1u) ? 0xFFFF : 0x0000));
  };
  for (size_t j = 0; j < e.ands.size(); ++j) {
    val[5 + j] = static_cast<uint16_t>(lit_val(e.ands[j][0]) &
                                       lit_val(e.ands[j][1]));
  }
  return lit_val(e.out);
}

}  // namespace

RewriteDb::RewriteDb() : index_(65536, -1) {
  const NpnTable& npn = NpnTable::instance();
  Aig scratch;
  Lit xs[4];
  for (int i = 0; i < 4; ++i) xs[i] = scratch.add_pi();
  std::unordered_map<uint16_t, Lit> shannon_memo;

  for (uint16_t rep : npn.representatives()) {
    const uint16_t neg = static_cast<uint16_t>(~rep & 0xFFFF);
    const Lit candidates[3] = {
        build_from_sop(&scratch, xs, to_truth_table(rep).isop()),
        lit_not(build_from_sop(&scratch, xs, to_truth_table(neg).isop())),
        build_shannon(&scratch, xs, rep, &shannon_memo),
    };
    Lit best = candidates[0];
    int best_size = cone_size(scratch, best);
    for (int i = 1; i < 3; ++i) {
      const int size = cone_size(scratch, candidates[i]);
      if (size < best_size) {
        best = candidates[i];
        best_size = size;
      }
    }
    Entry e = extract_entry(scratch, best);
    if (simulate_entry(e) != rep) {
      throw std::logic_error("rewrite db: stored network does not match class");
    }
    index_[rep] = static_cast<int32_t>(entries_.size());
    entries_.push_back(std::move(e));
  }
}

const RewriteDb& RewriteDb::instance() {
  static const RewriteDb db;
  return db;
}

Lit RewriteDb::instantiate(Aig* dst, const Entry& e, const Lit slot_lits[4]) {
  std::vector<Lit> val(5 + e.ands.size(), kInvalidLit);
  val[0] = kLitFalse;
  for (int i = 0; i < 4; ++i) val[1 + i] = slot_lits[i];
  auto lit_val = [&](uint16_t l) {
    return lit_not_cond(val[l >> 1], (l & 1u) != 0);
  };
  for (size_t j = 0; j < e.ands.size(); ++j) {
    val[5 + j] = dst->create_and(lit_val(e.ands[j][0]), lit_val(e.ands[j][1]));
  }
  return lit_val(e.out);
}

namespace {

// Rewriting repeats until a pass gains nothing, capped at this many passes.
constexpr int kMaxPasses = 4;

/// One rewriting pass: pick the cheapest cut implementation per node under
/// area flow, then materialize only the chosen cover into a fresh AIG.
Aig rewrite_pass(const Aig& src, size_t* cuts_enumerated) {
  const NpnTable& npn = NpnTable::instance();
  const RewriteDb& db = RewriteDb::instance();
  const CutSet cs = enumerate_cuts(src);
  *cuts_enumerated += cs.total_enumerated;

  // Fanout references — the sharing denominator of area flow. Counted over
  // the whole arena: dead strash-shared branches slightly inflate the
  // denominator, which only makes shared leaves look cheaper.
  std::vector<uint32_t> refs(src.num_nodes(), 0);
  for (uint32_t id = 1; id < static_cast<uint32_t>(src.num_nodes()); ++id) {
    if (!src.is_and(id)) continue;
    ++refs[lit_node(src.fanin0(id))];
    ++refs[lit_node(src.fanin1(id))];
  }
  for (int i = 0; i < src.num_pos(); ++i) ++refs[lit_node(src.po_lit(i))];

  // Per-node best cut by area flow: db cost of the cut's class plus the
  // leaves' flows diluted by their fanout. The structural 2-input cut is
  // always enumerated, so every node has a candidate and a do-nothing
  // cover reproduces the source graph.
  std::vector<double> flow(src.num_nodes(), 0.0);
  std::vector<int> best(src.num_nodes(), -1);
  for (uint32_t id = 1; id < static_cast<uint32_t>(src.num_nodes()); ++id) {
    if (!src.is_and(id)) continue;
    const auto& cuts = cs.cuts[id];
    double best_cost = 0.0;
    for (size_t ci = 0; ci < cuts.size(); ++ci) {
      const Cut& c = cuts[ci];
      if (c.size == 1 && c.leaves[0] == id) continue;  // trivial cut
      double cost = db.cost(npn.canonical(c.tt));
      for (int j = 0; j < c.size; ++j) {
        cost += flow[c.leaves[j]] /
                std::max<uint32_t>(1, refs[c.leaves[j]]);
      }
      if (best[id] < 0 || cost < best_cost) {
        best[id] = static_cast<int>(ci);
        best_cost = cost;
      }
    }
    flow[id] = best_cost;
  }

  // Materialize the cover bottom-up from the POs.
  Aig dst;
  std::vector<Lit> mapped(src.num_nodes(), kInvalidLit);
  mapped[0] = kLitFalse;
  for (int i = 0; i < src.num_pis(); ++i) {
    mapped[src.pi_node(i)] = dst.add_pi(src.pi_name(i));
  }

  std::vector<uint32_t> stack;
  auto build = [&](uint32_t root) {
    if (mapped[root] != kInvalidLit) return;
    stack.push_back(root);
    while (!stack.empty()) {
      const uint32_t n = stack.back();
      if (mapped[n] != kInvalidLit) {
        stack.pop_back();
        continue;
      }
      const Cut& c = cs.cuts[n][static_cast<size_t>(best[n])];
      bool ready = true;
      for (int j = 0; j < c.size; ++j) {
        if (mapped[c.leaves[j]] == kInvalidLit) {
          stack.push_back(c.leaves[j]);
          ready = false;
        }
      }
      if (!ready) continue;
      stack.pop_back();

      const NpnEntry& t = npn.entry(c.tt);
      Lit slots[4];
      for (int i = 0; i < 4; ++i) {
        const int v = t.perm(i);
        // Slots wired past the cut width feed classes that provably do not
        // depend on them (NPN preserves support).
        const Lit x = v < c.size ? mapped[c.leaves[v]] : kLitFalse;
        slots[i] = lit_not_cond(x, t.input_neg(i));
      }
      const Lit o = RewriteDb::instantiate(&dst, db.entry(t.canon), slots);
      mapped[n] = lit_not_cond(o, t.output_neg());
    }
  };

  for (int i = 0; i < src.num_pos(); ++i) {
    const Lit po = src.po_lit(i);
    build(lit_node(po));
    dst.add_po(lit_not_cond(mapped[lit_node(po)], lit_complemented(po)),
               src.po_name(i));
  }
  return dst;
}

}  // namespace

Aig rewrite(const Aig& src, RewriteStats* stats) {
  RewriteStats local;
  RewriteStats* s = stats ? stats : &local;
  *s = RewriteStats{};
  s->ands_before = src.count_reachable_ands();

  Aig result = src;
  int current = s->ands_before;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    Aig next = rewrite_pass(result, &s->cuts_enumerated);
    const int next_ands = next.count_reachable_ands();
    ++s->passes;
    if (next_ands >= current) break;  // pass guard: never accept a regression
    result = std::move(next);
    current = next_ands;
  }
  s->ands_after = current;
  return result;
}

}  // namespace apx::aig
