// SIMD substrate benchmark: the fault engine's evaluation kernels at every
// dispatch tier the host supports (scalar / AVX2 / AVX-512, cycled via the
// in-process tier hook), on a Table-1-sized CED design. Two sweeps: the
// full-network golden simulation (substrate) and the campaign visitors'
// popcount accounting (visitor). Emits BENCH_faultsim.json (fields
// documented in EXPERIMENTS.md).
//
// Only the bars that need a clock live here. Thread and tier bit-identity
// of the campaigns, the per-fault-model rows and the engine's work bound
// against a per-fault rerun are ctests (fault_engine_test,
// simd_identity_test).
#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/ced.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"

using namespace apx;
using namespace apx::bench;

namespace {

// Raw substrate sweep: full-network golden simulation of `words` pattern
// words, repeated `reps` times through the active kernel. The checksum
// folds every node row of the value plane, so two tiers match only if their
// planes are byte-identical.
struct Sweep {
  double seconds = 0.0;
  double patterns_per_sec = 0.0;
  uint64_t plane_checksum = 0;
};

Sweep run_substrate_sweep(const Network& net, int words, int reps,
                          uint64_t seed) {
  Simulator sim(net);
  PatternSet patterns = PatternSet::random(net.num_pis(), words, seed);
  Stopwatch watch;
  for (int r = 0; r < reps; ++r) sim.run(patterns);
  Sweep s;
  s.seconds = watch.seconds();
  s.patterns_per_sec =
      static_cast<double>(reps) * words * 64 / (s.seconds > 0 ? s.seconds : 1);
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the whole value plane
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (uint64_t w : sim.value(id)) {
      h = (h ^ w) * 0x100000001b3ULL;
    }
  }
  s.plane_checksum = h;
  return s;
}

struct WidthRow {
  simd::Tier tier;
  Sweep sweep;
};

// Visitor-accounting sweep: isolates the campaign visitors' popcount tax.
// One injection materializes golden/faulty rows for every functional
// output plus the two-rail pair; the sweep then replays the CED coverage
// accounting over those rows `reps` times, once with the legacy per-word
// std::popcount loop and once through the dispatched popcount-reduce
// kernels. Both compute the identical (erroneous, detected) integers —
// `visitor_bit_identical` in the artifact — and the ratio of their times
// is the visitor speedup the release gate watches.
struct VisitorSweep {
  double scalar_seconds = 0.0;
  double kernel_seconds = 0.0;
  int64_t scalar_erroneous = 0, scalar_detected = 0;
  int64_t kernel_erroneous = 0, kernel_detected = 0;
  uint64_t scalar_checksum = 0, kernel_checksum = 0;
};

VisitorSweep run_visitor_sweep(const CedDesign& ced, int words, int reps,
                               uint64_t seed) {
  // Copy the rows out of the fault view into one aligned arena: golden
  // rows, then faulty rows, of every functional output, then the rails.
  const size_t outs = ced.functional_outputs.size();
  ValueArena rows;
  rows.reset(static_cast<int>(2 * outs + 2), words);
  FaultSimEngine engine(ced.design);
  const NodeId site = ced.functional_nodes[ced.functional_nodes.size() / 2];
  engine.run_batch(
      PatternSet::random(ced.design.num_pis(), words, seed),
      {FaultSpec::stuck_at(site, true)},
      [&](int, const FaultSpec&, const FaultView& v) {
        auto copy = [&](int r, const uint64_t* src) {
          std::copy(src, src + words, rows.row(r));
        };
        for (size_t o = 0; o < outs; ++o) {
          copy(static_cast<int>(o), v.golden(ced.functional_outputs[o]));
          copy(static_cast<int>(outs + o),
               v.faulty(ced.functional_outputs[o]));
        }
        copy(static_cast<int>(2 * outs), v.faulty(ced.error_pair.rail1));
        copy(static_cast<int>(2 * outs + 1), v.faulty(ced.error_pair.rail2));
      });
  std::vector<const uint64_t*> golden, faulty;
  for (size_t o = 0; o < outs; ++o) {
    golden.push_back(rows.row(static_cast<int>(o)));
    faulty.push_back(rows.row(static_cast<int>(outs + o)));
  }
  const uint64_t* z1 = rows.row(static_cast<int>(2 * outs));
  const uint64_t* z2 = rows.row(static_cast<int>(2 * outs + 1));

  VisitorSweep v;
  {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      int64_t erroneous = 0, detected = 0;
      for (int w = 0; w < words; ++w) {
        uint64_t err = 0;
        for (size_t o = 0; o < outs; ++o) err |= golden[o][w] ^ faulty[o][w];
        uint64_t flagged = ~(z1[w] ^ z2[w]);
        erroneous += std::popcount(err);
        detected += std::popcount(err & flagged);
      }
      v.scalar_erroneous = erroneous;
      v.scalar_detected = detected;
      // Rep-dependent fold so the loop cannot be hoisted as invariant.
      v.scalar_checksum +=
          static_cast<uint64_t>(erroneous + detected) * (r + 1);
    }
    v.scalar_seconds = watch.seconds();
  }
  {
    std::vector<uint64_t> err_row(words);
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      std::fill(err_row.begin(), err_row.end(), 0);
      for (size_t o = 0; o < outs; ++o) {
        accumulate_xor_or(err_row.data(), golden[o], faulty[o], words);
      }
      int64_t erroneous = popcount_words(err_row.data(), words, ~0ULL);
      int64_t detected =
          erroneous - popcount_xor_and(z1, z2, err_row.data(), words, ~0ULL);
      v.kernel_erroneous = erroneous;
      v.kernel_detected = detected;
      v.kernel_checksum +=
          static_cast<uint64_t>(erroneous + detected) * (r + 1);
    }
    v.kernel_seconds = watch.seconds();
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_faultsim.json";
  const char* circuit = "dalu";

  // Open the artifact up front: the host-metadata block must record the
  // *startup* dispatch (APX_SIMD / CPUID), not the tier the per-width loop
  // happens to leave active.
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  apx::bench::write_host_metadata(f);

  // Table-1-sized workload: a mapped MCNC-profile stand-in protected by
  // duplication (functional + checkgen + checkers, everything gate-level).
  Network mapped = technology_map(quick_synthesis(make_benchmark(circuit)));
  std::vector<ApproxDirection> dirs(mapped.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(mapped, mapped, dirs);

  std::printf("bench_faultsim: %s CED design, %d nodes (%d functional "
              "gates), dispatch %s\n\n",
              circuit, ced.design.num_nodes(), ced.functional_area(),
              simd::tier_name(simd::active_tier()));

  // Per-SIMD-width rows: cycle every tier the host can execute through the
  // in-process hook. The loop ends on the widest tier, which is what auto
  // dispatch picks anyway.
  const int sweep_words = 256;
  const int sweep_reps = scaled(40);
  std::vector<WidthRow> widths;
  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::tier_supported(tier)) continue;
    simd::set_tier(tier);
    WidthRow row;
    row.tier = tier;
    row.sweep =
        run_substrate_sweep(ced.design, sweep_words, sweep_reps, 0x51D);
    widths.push_back(row);
    std::printf("%-8s (%3d-bit) substrate %12.0f pat/s   checksum %016llx\n",
                simd::tier_name(tier), simd::width_bits(tier),
                row.sweep.patterns_per_sec,
                static_cast<unsigned long long>(row.sweep.plane_checksum));
  }

  bool widths_identical = true;
  for (const WidthRow& row : widths) {
    widths_identical = widths_identical && row.sweep.plane_checksum ==
                                               widths[0].sweep.plane_checksum;
  }
  // The kernel gate compares the widest supported tier against the scalar
  // row on the substrate sweep; it is enforced only where the host actually
  // has vector units.
  const bool simd_gate_enforced = simd::tier_supported(simd::Tier::kAvx2);
  const double simd_speedup =
      widths.back().sweep.patterns_per_sec / widths[0].sweep.patterns_per_sec;
  std::printf("\nSIMD value planes bit-identical: %s\n",
              widths_identical ? "yes" : "NO");
  std::printf("substrate speedup %s over scalar: %.1fx (gate %s)\n",
              simd::tier_name(widths.back().tier), simd_speedup,
              simd_gate_enforced ? "enforced" : "advisory");

  // Visitor-accounting sweep at a word geometry wide enough for the vector
  // popcount reduce to dominate the loop bookkeeping. The width loop above
  // exited on the widest supported tier, which is what auto dispatch picks.
  const int visitor_words = 1024;
  const int visitor_reps = scaled(3000);
  VisitorSweep vs =
      run_visitor_sweep(ced, visitor_words, visitor_reps, 0xACC0);
  const bool visitor_identical =
      vs.scalar_erroneous == vs.kernel_erroneous &&
      vs.scalar_detected == vs.kernel_detected &&
      vs.scalar_checksum == vs.kernel_checksum;
  const bool visitor_gate_enforced = simd::tier_supported(simd::Tier::kAvx2);
  const double visitor_speedup =
      vs.scalar_seconds / (vs.kernel_seconds > 0 ? vs.kernel_seconds : 1e-12);
  std::printf("visitor accounting (%d words x %d reps): scalar %.3fs, "
              "kernels %.3fs -> %.1fx (gate %s), counts %s\n",
              visitor_words, visitor_reps, vs.scalar_seconds,
              vs.kernel_seconds, visitor_speedup,
              visitor_gate_enforced ? "enforced" : "advisory",
              visitor_identical ? "identical" : "DIVERGED");

  std::fprintf(f, "  \"circuit\": \"%s\",\n", circuit);
  std::fprintf(f, "  \"ced_nodes\": %d,\n", ced.design.num_nodes());
  std::fprintf(f, "  \"functional_gates\": %d,\n", ced.functional_area());
  std::fprintf(f, "  \"simd\": [\n");
  for (size_t i = 0; i < widths.size(); ++i) {
    const WidthRow& row = widths[i];
    std::fprintf(
        f,
        "    {\"tier\": \"%s\", \"width_bits\": %d, "
        "\"substrate_seconds\": %.4f, \"substrate_patterns_per_sec\": %.1f, "
        "\"plane_checksum\": \"%016llx\"}%s\n",
        simd::tier_name(row.tier), simd::width_bits(row.tier),
        row.sweep.seconds, row.sweep.patterns_per_sec,
        static_cast<unsigned long long>(row.sweep.plane_checksum),
        i + 1 < widths.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"sweep_words\": %d,\n", sweep_words);
  std::fprintf(f, "  \"sweep_reps\": %d,\n", sweep_reps);
  std::fprintf(f, "  \"simd_speedup\": %.2f,\n", simd_speedup);
  std::fprintf(f, "  \"simd_speedup_gate\": 3.0,\n");
  std::fprintf(f, "  \"simd_gate_enforced\": %s,\n",
               simd_gate_enforced ? "true" : "false");
  std::fprintf(f, "  \"visitor_words\": %d,\n", visitor_words);
  std::fprintf(f, "  \"visitor_reps\": %d,\n", visitor_reps);
  std::fprintf(f, "  \"visitor_scalar_seconds\": %.4f,\n", vs.scalar_seconds);
  std::fprintf(f, "  \"visitor_kernel_seconds\": %.4f,\n", vs.kernel_seconds);
  std::fprintf(f, "  \"visitor_speedup\": %.2f,\n", visitor_speedup);
  std::fprintf(f, "  \"visitor_speedup_gate\": 2.0,\n");
  std::fprintf(f, "  \"visitor_gate_enforced\": %s,\n",
               visitor_gate_enforced ? "true" : "false");
  std::fprintf(f, "  \"visitor_bit_identical\": %s,\n",
               visitor_identical ? "true" : "false");
  std::fprintf(f, "  \"widths_bit_identical\": %s\n",
               widths_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Fail loudly if a tier's value plane or the visitor accounting drifts,
  // or if the SIMD kernels miss their bars on vector-capable hosts (3x
  // substrate evaluation, 2x visitor accounting).
  bool ok = widths_identical && visitor_identical;
  if (simd_gate_enforced) ok = ok && simd_speedup >= 3.0;
  if (visitor_gate_enforced) ok = ok && visitor_speedup >= 2.0;
  return ok ? 0 : 1;
}
