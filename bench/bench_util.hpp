// Shared utilities for the paper-table bench harnesses: environment-driven
// effort scaling, auto-tuning of the significance threshold, and table
// printing. Every bench prints the paper's reported numbers alongside the
// measured ones (see EXPERIMENTS.md for the comparison discussion).
#pragma once

#include <chrono>
#include <optional>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/pipeline.hpp"
#include "sim/kernels.hpp"

namespace apx::bench {

/// Effort multiplier: APXCED_SCALE=10 multiplies all fault-sample budgets
/// (default 1 keeps the full default run under ~10 minutes on one core).
inline double effort_scale() {
  const char* env = std::getenv("APXCED_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline int scaled(int base) {
  return static_cast<int>(base * effort_scale());
}

/// Standard pipeline options at a given threshold with scaled budgets.
inline PipelineOptions tuned_options(double threshold, bool sharing = false) {
  PipelineOptions opt;
  opt.approx.significance_threshold = threshold;
  opt.reliability.num_fault_samples = scaled(1500);
  opt.coverage.num_fault_samples = scaled(1500);
  opt.logic_sharing = sharing;
  return opt;
}

/// Auto-tunes the significance threshold like the paper's per-circuit
/// tuning: sweep a ladder of thresholds and keep the knee-point
/// configuration maximizing coverage - lambda * area_overhead (lambda
/// trades one point of coverage against four points of area).
struct TunedRun {
  double threshold = 0.0;
  PipelineResult result;
};

inline TunedRun auto_tune(const Network& net, double lambda = 0.25,
                          bool sharing = false) {
  std::vector<double> ladder = {0.05, 0.12, 0.2, 0.3, 0.45};
  std::optional<TunedRun> chosen;
  double best_score = -1e9;
  for (double th : ladder) {
    TunedRun run;
    run.threshold = th;
    run.result = run_ced_pipeline(net, tuned_options(th, sharing));
    double score = 100.0 * run.result.coverage.coverage() -
                   lambda * run.result.overheads.area_overhead_pct();
    if (score > best_score) {
      best_score = score;
      chosen = std::move(run);
    }
  }
  return std::move(*chosen);
}

/// Host/run metadata block for every bench JSON artifact. A regressing
/// snapshot produced on a small runner (where parallel speedup gates are
/// advisory) must be distinguishable from a gated one, so each artifact
/// records the physical core count, the APX_THREADS pin in effect, and the
/// SIMD substrate actually dispatched at startup:
/// `simd_width_bits` is the active kernel lane width (64 scalar / 256 AVX2
/// / 512 AVX-512) and `simd_policy` records how it was chosen ("auto",
/// an APX_SIMD pin, or a clamp like "avx512->avx2(unsupported)"). Emits
/// four `"key": value,` lines at the given indent; callers place it among
/// their top-level fields.
inline void write_host_metadata(std::FILE* f, const char* indent = "  ") {
  const char* apx_threads = std::getenv("APX_THREADS");
  std::fprintf(f, "%s\"host_cores\": %u,\n", indent,
               std::thread::hardware_concurrency());
  std::fprintf(f, "%s\"thread_policy\": \"APX_THREADS=%s\",\n", indent,
               apx_threads != nullptr ? apx_threads : "unset");
  std::fprintf(f, "%s\"simd_width_bits\": %d,\n", indent, simd::width_bits());
  std::fprintf(f, "%s\"simd_policy\": \"%s\",\n", indent, simd::policy());
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void print_header(const std::string& title) {
  std::printf("%s\n", title.c_str());
  std::printf("(measured on generated MCNC-profile stand-ins; paper columns "
              "are the published values — compare shapes, not absolutes; "
              "see DESIGN.md)\n\n");
}

}  // namespace apx::bench
