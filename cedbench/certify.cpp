#include "certify.hpp"

#include "sat/encode.hpp"
#include "sim/simulator.hpp"

namespace cedbench {
namespace {

constexpr int64_t kMiterConflictBudget = 200000;
constexpr int kWords = 256;

Verdict fail(std::string reason) { return {false, std::move(reason)}; }

}  // namespace

Verdict certify_design(const apx::Network& input, const apx::Network& checkgen,
                       const apx::CedDesign& ced,
                       const std::vector<apx::ApproxDirection>& directions,
                       bool sat_miter, uint64_t seed) {
  using apx::ApproxDirection;
  const int pos = input.num_pos();
  if (checkgen.num_pis() != input.num_pis() || checkgen.num_pos() != pos ||
      ced.design.num_pis() != input.num_pis() ||
      static_cast<int>(ced.functional_outputs.size()) != pos ||
      static_cast<int>(directions.size()) != pos) {
    return fail("interface mismatch");
  }

  const apx::PatternSet patterns =
      apx::PatternSet::random(input.num_pis(), kWords, seed);
  apx::Simulator sim_input(input);
  apx::Simulator sim_checkgen(checkgen);
  apx::Simulator sim_design(ced.design);
  sim_input.run(patterns);
  sim_checkgen.run(patterns);
  sim_design.run(patterns);

  const apx::WordSpan rail1 = sim_design.value(ced.error_pair.rail1);
  const apx::WordSpan rail2 = sim_design.value(ced.error_pair.rail2);
  for (int w = 0; w < kWords; ++w) {
    if (~(rail1[w] ^ rail2[w]) != 0) return fail("false alarm");
  }
  for (int o = 0; o < pos; ++o) {
    const apx::WordSpan f = sim_input.value(input.po(o).driver);
    const apx::WordSpan g = sim_checkgen.value(checkgen.po(o).driver);
    const apx::WordSpan y = sim_design.value(ced.functional_outputs[o]);
    const bool one_approx = directions[o] == ApproxDirection::kOneApprox;
    for (int w = 0; w < kWords; ++w) {
      if (y[w] != f[w]) return fail("functional output " + std::to_string(o));
      const uint64_t violation = one_approx ? (g[w] & ~f[w]) : (f[w] & ~g[w]);
      if (violation != 0) {
        return fail("implication violated by simulation at output " +
                    std::to_string(o));
      }
    }
  }

  if (sat_miter) {
    for (int o = 0; o < pos; ++o) {
      // 1-approx: X => Y; 0-approx: Y => X.
      const bool one_approx = directions[o] == ApproxDirection::kOneApprox;
      const apx::CheckResult r =
          one_approx ? apx::check_po_implication(checkgen, o, input, o,
                                                 kMiterConflictBudget)
                     : apx::check_po_implication(input, o, checkgen, o,
                                                 kMiterConflictBudget);
      if (r != apx::CheckResult::kHolds) {
        return fail(std::string("SAT miter ") +
                    (r == apx::CheckResult::kFails ? "refuted" : "undecided") +
                    " at output " + std::to_string(o));
      }
    }
  }
  return {};
}

apx::Network invert_po(const apx::Network& net, int po) {
  apx::Network broken = net;
  broken.set_po_driver(po, broken.add_not(broken.po(po).driver));
  return broken;
}

}  // namespace cedbench
