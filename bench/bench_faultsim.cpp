// Fault-simulation throughput benchmark: the seed's per-fault golden
// re-simulation loop vs the shared-pattern FaultSimEngine, on a
// Table-1-sized CED coverage run (same fault/pattern counts), plus thread
// scaling at 1/2/4/8 workers and per-SIMD-width rows (scalar / AVX2 /
// AVX-512 kernels cycled via the in-process tier hook). Emits
// BENCH_faultsim.json so the perf trajectory is tracked from PR 1 onward
// (fields documented in EXPERIMENTS.md).
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "baselines/parity.hpp"
#include "bench_util.hpp"
#include "core/ced.hpp"
#include "core/pipeline.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"

using namespace apx;
using namespace apx::bench;

namespace {

struct Throughput {
  double seconds = 0.0;
  double faults_per_sec = 0.0;
  double patterns_per_sec = 0.0;
  CoverageResult result;
};

Throughput rates(double seconds, const CoverageOptions& opt,
                 CoverageResult result) {
  Throughput t;
  t.seconds = seconds;
  t.faults_per_sec = opt.num_fault_samples / seconds;
  t.patterns_per_sec =
      static_cast<double>(opt.num_fault_samples) * opt.words_per_fault * 64 /
      seconds;
  t.result = result;
  return t;
}

// The seed's evaluate_ced_coverage loop: fresh PatternSet, site drawn as
// `rng() % n`, and a full golden re-simulation per fault sample (a
// one-fault run_batch on the sample's own patterns).
Throughput run_baseline(const CedDesign& ced, const CoverageOptions& options) {
  Stopwatch watch;
  CoverageResult result;
  std::mt19937_64 rng(options.seed);
  FaultSimEngine engine(ced.design);
  const Network& net = ced.design;
  const int words = options.words_per_fault;
  auto count = [&](int, const FaultSpec&, const FaultView& v) {
    const uint64_t* z1 = v.faulty(ced.error_pair.rail1);
    const uint64_t* z2 = v.faulty(ced.error_pair.rail2);
    for (int w = 0; w < words; ++w) {
      uint64_t err = 0;
      for (NodeId out : ced.functional_outputs) {
        err |= v.golden(out)[w] ^ v.faulty(out)[w];
      }
      uint64_t flagged = ~(z1[w] ^ z2[w]);
      result.erroneous += std::popcount(err);
      result.detected += std::popcount(err & flagged);
      result.runs += 64;
    }
  };
  for (int s = 0; s < options.num_fault_samples; ++s) {
    NodeId site = ced.functional_nodes[rng() % ced.functional_nodes.size()];
    const bool stuck_value = (rng() & 1) != 0;
    PatternSet patterns = PatternSet::random(net.num_pis(), words, rng());
    engine.run_batch(patterns, {FaultSpec::stuck_at(site, stuck_value)},
                     count, /*num_threads=*/1);
  }
  return rates(watch.seconds(), options, result);
}

Throughput run_engine(const CedDesign& ced, CoverageOptions options,
                      int threads) {
  options.num_threads = threads;
  Stopwatch watch;
  CoverageResult result = evaluate_ced_coverage(ced, options);
  return rates(watch.seconds(), options, result);
}

// Raw substrate sweep: full-network golden simulation of `words` pattern
// words, repeated `reps` times through the active kernel. This isolates the
// SOP-evaluation kernels the tentpole dispatches (the engine rows also pay
// per-fault fixed costs: forced-row copies, excitation checks, visitors).
// The checksum folds every node row of the value plane, so two tiers match
// only if their planes are byte-identical.
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
  Throughput engine;
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
      },
      /*num_threads=*/1);
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

// Per-fault-model coverage row: one CED scheme measured under one fault
// model, with the campaign replayed at a second thread count and across
// every supported SIMD tier so the bit-identity contract is pinned per
// model (not just for the legacy single-stuck-at path).
struct ModelRow {
  const char* scheme = "";
  FaultModel model = FaultModel::kSingleStuckAt;
  CoverageResult result;
  bool threads_identical = true;
  bool widths_identical = true;
};

ModelRow run_model_row(const char* scheme, const CedDesign& ced,
                       FaultModel model, const CoverageOptions& base) {
  ModelRow row;
  row.scheme = scheme;
  row.model = model;
  CoverageOptions o = base;
  o.model = model;
  o.num_threads = 1;
  row.result = evaluate_ced_coverage(ced, o);
  o.num_threads = 4;
  CoverageResult threads4 = evaluate_ced_coverage(ced, o);
  row.threads_identical = threads4.erroneous == row.result.erroneous &&
                          threads4.detected == row.result.detected;
  // Cycle the kernel tiers; the loop ends on the widest supported one,
  // which is what auto dispatch picks (same convention as the width rows).
  o.num_threads = 1;
  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::tier_supported(tier)) continue;
    simd::set_tier(tier);
    CoverageResult r = evaluate_ced_coverage(ced, o);
    row.widths_identical = row.widths_identical &&
                           r.erroneous == row.result.erroneous &&
                           r.detected == row.result.detected;
  }
  return row;
}

void print_row(const char* label, const Throughput& t) {
  std::printf("%-24s %8.3fs %12.0f f/s %14.0f pat/s   cov %.2f%%\n", label,
              t.seconds, t.faults_per_sec, t.patterns_per_sec,
              100.0 * t.result.coverage());
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

  CoverageOptions options;
  options.num_fault_samples = scaled(1500);
  options.words_per_fault = 4;

  std::printf("bench_faultsim: %s CED design, %d nodes (%d functional "
              "gates), %d fault samples x %d words, dispatch %s\n\n",
              circuit, ced.design.num_nodes(), ced.functional_area(),
              options.num_fault_samples, options.words_per_fault,
              simd::tier_name(simd::active_tier()));

  Throughput baseline = run_baseline(ced, options);
  print_row("per-fault rerun (seed)", baseline);

  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<Throughput> engine_runs;
  for (int threads : thread_counts) {
    engine_runs.push_back(run_engine(ced, options, threads));
    print_row(("engine, " + std::to_string(threads) + " thread(s)").c_str(),
              engine_runs.back());
  }

  bool threads_identical = true;
  for (const Throughput& t : engine_runs) {
    threads_identical = threads_identical &&
                        t.result.erroneous == engine_runs[0].result.erroneous &&
                        t.result.detected == engine_runs[0].result.detected;
  }
  double speedup = engine_runs[0].faults_per_sec / baseline.faults_per_sec;
  std::printf("\nsingle-thread speedup over per-fault rerun: %.1fx\n",
              speedup);
  std::printf("thread counts bit-identical: %s\n\n",
              threads_identical ? "yes" : "NO");

  // Per-SIMD-width rows: cycle every tier the host can execute through the
  // in-process hook, measuring the raw substrate kernel and the full engine
  // at each width. The loop ends on the widest tier, which is what auto
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
    row.engine = run_engine(ced, options, 1);
    widths.push_back(row);
    std::printf("%-8s (%3d-bit) substrate %12.0f pat/s   engine %12.0f "
                "pat/s   cov %.2f%%\n",
                simd::tier_name(tier), simd::width_bits(tier),
                row.sweep.patterns_per_sec, row.engine.patterns_per_sec,
                100.0 * row.engine.result.coverage());
  }

  bool widths_identical = true;
  for (const WidthRow& row : widths) {
    widths_identical =
        widths_identical &&
        row.sweep.plane_checksum == widths[0].sweep.plane_checksum &&
        row.engine.result.erroneous == widths[0].engine.result.erroneous &&
        row.engine.result.detected == widths[0].engine.result.detected;
  }
  // The kernel gate compares the widest supported tier against the scalar
  // row on the substrate sweep; it is enforced only where the host actually
  // has vector units (mirrors the thread-scaling gate on small runners).
  const bool simd_gate_enforced = simd::tier_supported(simd::Tier::kAvx2);
  const double simd_speedup =
      widths.back().sweep.patterns_per_sec / widths[0].sweep.patterns_per_sec;
  std::printf("\nSIMD widths bit-identical: %s\n",
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

  // Per-model coverage rows (paper Table 2's scheme axis crossed with the
  // generalized fault models): the approximate-logic CED flow vs exact
  // duplication vs parity prediction under single stuck-at, double
  // stuck-at, and burst-transient injection. Every row replays its
  // campaign at 1 vs 4 threads and across all supported SIMD tiers; the
  // exit gate requires both identities per row.
  PipelineResult approx = run_ced_pipeline(make_benchmark(circuit),
                                           tuned_options(0.1));
  std::vector<int> all_pos(mapped.num_pos());
  std::iota(all_pos.begin(), all_pos.end(), 0);
  CedDesign duplication = build_duplication_ced(mapped, mapped, all_pos);
  CedDesign parity = build_parity_ced(mapped);
  CoverageOptions model_options;
  model_options.num_fault_samples = scaled(300);
  model_options.words_per_fault = 4;
  model_options.sites_per_fault = 2;
  model_options.burst_vectors = 16;
  struct SchemeEntry {
    const char* name;
    const CedDesign* ced;
  };
  const SchemeEntry schemes[] = {
      {"approx_ced", &approx.ced},
      {"duplication", &duplication},
      {"parity", &parity},
  };
  std::vector<ModelRow> model_rows;
  bool models_identical = true;
  std::printf("\nper-model coverage (%d samples x %d words):\n",
              model_options.num_fault_samples, model_options.words_per_fault);
  for (const SchemeEntry& scheme : schemes) {
    for (FaultModel model :
         {FaultModel::kSingleStuckAt, FaultModel::kMultiStuckAt,
          FaultModel::kTransientBurst}) {
      ModelRow row =
          run_model_row(scheme.name, *scheme.ced, model, model_options);
      models_identical = models_identical && row.threads_identical &&
                         row.widths_identical;
      std::printf("  %-12s %-16s cov %6.2f%%  (err %lld, det %lld)%s%s\n",
                  row.scheme, fault_model_name(row.model),
                  100.0 * row.result.coverage(),
                  static_cast<long long>(row.result.erroneous),
                  static_cast<long long>(row.result.detected),
                  row.threads_identical ? "" : "  THREADS-DIVERGED",
                  row.widths_identical ? "" : "  WIDTHS-DIVERGED");
      model_rows.push_back(row);
    }
  }
  // Exact duplication compares every output, so it must flag every
  // erroneous run under every fault model.
  bool duplication_exact = true;
  for (const ModelRow& row : model_rows) {
    if (std::strcmp(row.scheme, "duplication") == 0) {
      duplication_exact = duplication_exact &&
                          row.result.detected == row.result.erroneous;
    }
  }
  std::printf("per-model determinism (threads x widths): %s   "
              "%zu scheme x model rows   duplication detects every "
              "erroneous run: %s\n",
              models_identical ? "yes" : "NO", model_rows.size(),
              duplication_exact ? "yes" : "NO");

  std::fprintf(f, "  \"circuit\": \"%s\",\n", circuit);
  std::fprintf(f, "  \"ced_nodes\": %d,\n", ced.design.num_nodes());
  std::fprintf(f, "  \"functional_gates\": %d,\n", ced.functional_area());
  std::fprintf(f, "  \"fault_samples\": %d,\n", options.num_fault_samples);
  std::fprintf(f, "  \"words_per_fault\": %d,\n", options.words_per_fault);
  std::fprintf(f, "  \"vectors_per_fault\": %d,\n",
               options.words_per_fault * 64);
  std::fprintf(f,
               "  \"baseline_per_fault_rerun\": {\"seconds\": %.4f, "
               "\"faults_per_sec\": %.1f, \"patterns_per_sec\": %.1f, "
               "\"coverage_pct\": %.2f},\n",
               baseline.seconds, baseline.faults_per_sec,
               baseline.patterns_per_sec, 100.0 * baseline.result.coverage());
  std::fprintf(f, "  \"engine\": [\n");
  for (size_t i = 0; i < engine_runs.size(); ++i) {
    const Throughput& t = engine_runs[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.4f, "
                 "\"faults_per_sec\": %.1f, \"patterns_per_sec\": %.1f, "
                 "\"coverage_pct\": %.2f}%s\n",
                 thread_counts[i], t.seconds, t.faults_per_sec,
                 t.patterns_per_sec, 100.0 * t.result.coverage(),
                 i + 1 < engine_runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"simd\": [\n");
  for (size_t i = 0; i < widths.size(); ++i) {
    const WidthRow& row = widths[i];
    std::fprintf(
        f,
        "    {\"tier\": \"%s\", \"width_bits\": %d, "
        "\"substrate_seconds\": %.4f, \"substrate_patterns_per_sec\": %.1f, "
        "\"plane_checksum\": \"%016llx\", "
        "\"engine_seconds\": %.4f, \"engine_patterns_per_sec\": %.1f, "
        "\"coverage_pct\": %.2f}%s\n",
        simd::tier_name(row.tier), simd::width_bits(row.tier),
        row.sweep.seconds, row.sweep.patterns_per_sec,
        static_cast<unsigned long long>(row.sweep.plane_checksum),
        row.engine.seconds, row.engine.patterns_per_sec,
        100.0 * row.engine.result.coverage(),
        i + 1 < widths.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"sweep_words\": %d,\n", sweep_words);
  std::fprintf(f, "  \"sweep_reps\": %d,\n", sweep_reps);
  std::fprintf(f, "  \"speedup_single_thread\": %.2f,\n", speedup);
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
  std::fprintf(f, "  \"fault_model_samples\": %d,\n",
               model_options.num_fault_samples);
  std::fprintf(f, "  \"fault_models\": [\n");
  for (size_t i = 0; i < model_rows.size(); ++i) {
    const ModelRow& row = model_rows[i];
    std::fprintf(f,
                 "    {\"scheme\": \"%s\", \"model\": \"%s\", "
                 "\"coverage_pct\": %.2f, \"erroneous\": %lld, "
                 "\"detected\": %lld, \"threads_bit_identical\": %s, "
                 "\"widths_bit_identical\": %s}%s\n",
                 row.scheme, fault_model_name(row.model),
                 100.0 * row.result.coverage(),
                 static_cast<long long>(row.result.erroneous),
                 static_cast<long long>(row.result.detected),
                 row.threads_identical ? "true" : "false",
                 row.widths_identical ? "true" : "false",
                 i + 1 < model_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"models_bit_identical\": %s,\n",
               models_identical ? "true" : "false");
  std::fprintf(f, "  \"widths_bit_identical\": %s,\n",
               widths_identical ? "true" : "false");
  std::fprintf(f, "  \"threads_bit_identical\": %s\n",
               threads_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Fail loudly if the engine regresses below the 4x bar, determinism
  // breaks (threads, widths, the visitor accounting identity, or any
  // per-fault-model thread/width replay), a scheme x model row goes
  // missing, exact duplication misses an erroneous run under any model, or
  // the SIMD kernels miss their bars on vector-capable hosts (3x substrate
  // evaluation, 2x visitor accounting), so CI can watch the perf
  // trajectory.
  bool ok = speedup >= 4.0 && threads_identical && widths_identical &&
            visitor_identical && models_identical && model_rows.size() == 9 &&
            duplication_exact;
  if (simd_gate_enforced) ok = ok && simd_speedup >= 3.0;
  if (visitor_gate_enforced) ok = ok && visitor_speedup >= 2.0;
  return ok ? 0 : 1;
}
