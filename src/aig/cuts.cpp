#include "aig/cuts.hpp"

#include <algorithm>

#include "aig/npn.hpp"

namespace apx::aig {
namespace {

/// Re-expresses a child cut's truth table over a merged leaf set that
/// contains the child's leaves. `pos[j]` is the index of child leaf j in
/// the merged set; each merged-space minterm is projected down to the
/// child's minterm to read its bit.
uint16_t expand_tt(uint16_t child_tt, const uint8_t* pos, int child_size,
                   int merged_size) {
  uint16_t out = 0;
  const int minterms = 1 << merged_size;
  for (int m = 0; m < minterms; ++m) {
    int mc = 0;
    for (int j = 0; j < child_size; ++j) {
      mc |= ((m >> pos[j]) & 1) << j;
    }
    out = static_cast<uint16_t>(out | (((child_tt >> mc) & 1) << m));
  }
  return out;
}

/// Merges two sorted leaf sets; returns false when the union exceeds k.
bool merge_leaves(const Cut& a, const Cut& b, Cut* out, uint8_t* pos_a,
                  uint8_t* pos_b) {
  int i = 0;
  int j = 0;
  int n = 0;
  while (i < a.size || j < b.size) {
    if (n == kMaxCutSize &&
        (i < a.size || j < b.size)) {
      return false;
    }
    if (j >= b.size || (i < a.size && a.leaves[i] < b.leaves[j])) {
      pos_a[i] = static_cast<uint8_t>(n);
      out->leaves[n++] = a.leaves[i++];
    } else if (i >= a.size || b.leaves[j] < a.leaves[i]) {
      pos_b[j] = static_cast<uint8_t>(n);
      out->leaves[n++] = b.leaves[j++];
    } else {
      pos_a[i] = static_cast<uint8_t>(n);
      pos_b[j] = static_cast<uint8_t>(n);
      out->leaves[n++] = a.leaves[i++];
      ++j;
    }
  }
  out->size = static_cast<uint8_t>(n);
  return true;
}

bool cut_less(const Cut& a, const Cut& b) {
  if (a.size != b.size) return a.size < b.size;
  for (int i = 0; i < a.size; ++i) {
    if (a.leaves[i] != b.leaves[i]) return a.leaves[i] < b.leaves[i];
  }
  return false;
}

bool same_leaves(const Cut& a, const Cut& b) {
  if (a.size != b.size) return false;
  for (int i = 0; i < a.size; ++i) {
    if (a.leaves[i] != b.leaves[i]) return false;
  }
  return true;
}

Cut trivial_cut(uint32_t node) {
  Cut c;
  c.leaves[0] = node;
  c.size = 1;
  c.tt = tt16::kVar[0];
  return c;
}

}  // namespace

CutSet enumerate_cuts(const Aig& aig) {
  CutSet result;
  result.cuts.resize(aig.num_nodes());

  std::vector<Cut> scratch;
  scratch.reserve(static_cast<size_t>(kMaxCuts) * kMaxCuts + 1);

  for (uint32_t id = 1; id < static_cast<uint32_t>(aig.num_nodes()); ++id) {
    if (aig.is_pi(id)) {
      result.cuts[id].push_back(trivial_cut(id));
      ++result.total_enumerated;
      continue;
    }

    const Lit f0 = aig.fanin0(id);
    const Lit f1 = aig.fanin1(id);
    const auto& cuts0 = result.cuts[lit_node(f0)];
    const auto& cuts1 = result.cuts[lit_node(f1)];
    const uint16_t mask0 = lit_complemented(f0) ? 0xFFFF : 0x0000;
    const uint16_t mask1 = lit_complemented(f1) ? 0xFFFF : 0x0000;

    scratch.clear();
    for (const Cut& c0 : cuts0) {
      for (const Cut& c1 : cuts1) {
        Cut merged;
        uint8_t pos0[kMaxCutSize];
        uint8_t pos1[kMaxCutSize];
        if (!merge_leaves(c0, c1, &merged, pos0, pos1)) continue;
        const uint16_t t0 = expand_tt(
            static_cast<uint16_t>(c0.tt ^ mask0), pos0, c0.size, merged.size);
        const uint16_t t1 = expand_tt(
            static_cast<uint16_t>(c1.tt ^ mask1), pos1, c1.size, merged.size);
        // Extend to a full 4-variable table by replicating the live block:
        // variables >= size become genuine don't-cares, which keeps NPN
        // lookup uniform for every cut width.
        uint32_t block = static_cast<uint32_t>(t0 & t1) &
                         ((1u << (1 << merged.size)) - 1u);
        for (int w = 1 << merged.size; w < 16; w <<= 1) {
          block |= block << w;
        }
        merged.tt = static_cast<uint16_t>(block);
        scratch.push_back(merged);
        ++result.total_enumerated;
      }
    }

    std::sort(scratch.begin(), scratch.end(), cut_less);
    auto& out = result.cuts[id];
    for (const Cut& c : scratch) {
      if (!out.empty() && same_leaves(out.back(), c)) continue;
      out.push_back(c);
      if (static_cast<int>(out.size()) == kMaxCuts - 1) break;
    }
    out.push_back(trivial_cut(id));
    ++result.total_enumerated;
  }
  return result;
}

}  // namespace apx::aig
