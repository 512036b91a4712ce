// End-to-end pipeline scaling benchmark: the full CED suite (one
// run_ced_pipeline row per circuit, rows running as shared-pool tasks whose
// inner fault campaigns and oracle sweeps also ride the pool) at 1 worker
// vs all workers. The pool's determinism contract requires every per-row
// output — gate counts, approximation %, coverage counts — to be
// bit-identical across the two runs; any drift fails the benchmark.
// Emits BENCH_pipeline.json (fields documented in EXPERIMENTS.md).
//
// Only the bar that needs a clock lives here. Row identity with tracing on
// and the order cache's warm-run savings are ctests (pipeline_test).
//
// Exit code: non-zero when the runs are not bit-identical, or when the
// parallel run falls below the 2.5x speedup gate on hardware with >= 4
// cores (the gate is advisory-only on smaller machines, where the pool
// cannot physically reach it; the JSON records which case applied).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/task_pool.hpp"
#include "network/ordering.hpp"

using namespace apx;
using namespace apx::bench;

namespace {

const char* kSuite[] = {"cmb", "cordic", "term1", "x1", "i2"};
constexpr int kNumRows = static_cast<int>(sizeof(kSuite) / sizeof(kSuite[0]));
constexpr double kSpeedupGate = 2.5;

struct Row {
  int gates = 0;
  int checkgen_gates = 0;
  double approx_pct = 0.0;
  double area_overhead_pct = 0.0;
  int64_t erroneous = 0;
  int64_t detected = 0;
  double coverage_pct = 0.0;
  double seconds = 0.0;  // row wall time; reported, not compared
};

struct SuiteRun {
  double seconds = 0.0;
  std::vector<Row> rows;
};

// Doubles compared as bit patterns: the contract is bit-identity, not
// epsilon-closeness.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool rows_identical(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].gates != b[i].gates ||
        a[i].checkgen_gates != b[i].checkgen_gates ||
        a[i].erroneous != b[i].erroneous ||
        a[i].detected != b[i].detected ||
        !same_bits(a[i].approx_pct, b[i].approx_pct) ||
        !same_bits(a[i].area_overhead_pct, b[i].area_overhead_pct)) {
      return false;
    }
  }
  return true;
}

SuiteRun run_suite(const std::vector<Network>& nets, int threads) {
  PipelineOptions opt;
  opt.approx.significance_threshold = 0.12;
  opt.reliability.num_fault_samples = scaled(1200);
  opt.coverage.num_fault_samples = scaled(1200);
  // `threads` bounds the whole process: the row tasks and the campaigns
  // inside them (synthesis is serial).
  const ScopedThreadCount limit(threads);

  SuiteRun run;
  run.rows.resize(kNumRows);
  // Both timed runs start with a cold order cache so the serial baseline
  // and the parallel run measure the same work: the cache's within-run win
  // — reusing a converged variable order across the oracle rebuilds one
  // pipeline performs per circuit — is counted, never leaked between the
  // timed runs.
  OrderCache::instance().clear();
  Stopwatch watch;
  TaskPool::instance().parallel_for(
      0, kNumRows,
      [&](int64_t i) {
        Stopwatch row_watch;
        PipelineResult r = run_ced_pipeline(nets[i], opt);
        Row& row = run.rows[i];
        row.seconds = row_watch.seconds();
        row.gates = r.mapped_original.num_logic_nodes();
        row.checkgen_gates = r.mapped_checkgen.num_logic_nodes();
        row.approx_pct = 100.0 * r.mean_approximation_pct();
        row.area_overhead_pct = r.overheads.area_overhead_pct();
        row.erroneous = r.coverage.erroneous;
        row.detected = r.coverage.detected;
        row.coverage_pct = 100.0 * r.coverage.coverage();
      });
  run.seconds = watch.seconds();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";

  std::vector<Network> nets;
  for (const char* name : kSuite) nets.push_back(make_benchmark(name));

  // Worker count follows the APX_THREADS policy; the speedup gate keys off
  // the physical core count (a policy override on a small box still
  // exercises real multi-threaded determinism, but cannot hit 2.5x).
  const int policy = thread_count();
  const int parallel_threads = policy > 1 ? policy : 1;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("bench_pipeline: %d-circuit CED suite, 1 vs %d pool workers "
              "(hardware_concurrency: %d)\n\n",
              kNumRows, parallel_threads, hw);

  SuiteRun serial = run_suite(nets, 1);
  std::printf("%-24s %8.3fs\n", "suite, 1 thread", serial.seconds);
  SuiteRun parallel = run_suite(nets, parallel_threads);
  std::printf("%-24s %8.3fs\n",
              ("suite, " + std::to_string(parallel_threads) + " threads")
                  .c_str(),
              parallel.seconds);

  const bool identical = rows_identical(serial.rows, parallel.rows);
  const double speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
  // The 2.5x bar needs real cores; enforce it only where they exist.
  const bool enforce_gate = hw >= 4 && parallel_threads >= 4;

  std::printf("\nsuite speedup at %d threads: %.2fx (gate %.1fx, %s)\n",
              parallel_threads, speedup, kSpeedupGate,
              enforce_gate ? "enforced" : "advisory: < 4 cores");
  std::printf("per-row outputs bit-identical: %s\n\n",
              identical ? "yes" : "NO");

  // Per-row wall seconds name the critical path: the parallel suite can
  // finish no sooner than its slowest row.
  std::printf("%-8s %7s %9s %7s %7s %7s %9s %9s\n", "circuit", "gates",
              "checkgen", "apx%", "cov%", "area%", "serial_s", "par_s");
  for (int i = 0; i < kNumRows; ++i) {
    const Row& r = parallel.rows[i];
    std::printf("%-8s %7d %9d %7.1f %7.1f %7.1f %9.3f %9.3f\n", kSuite[i],
                r.gates, r.checkgen_gates, r.approx_pct, r.coverage_pct,
                r.area_overhead_pct, serial.rows[i].seconds, r.seconds);
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": [");
  for (int i = 0; i < kNumRows; ++i) {
    std::fprintf(f, "\"%s\"%s", kSuite[i], i + 1 < kNumRows ? ", " : "");
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"fault_samples\": %d,\n", scaled(1200));
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n", hw);
  write_host_metadata(f);
  std::fprintf(f, "  \"threads_parallel\": %d,\n", parallel_threads);
  std::fprintf(f, "  \"serial_seconds\": %.4f,\n", serial.seconds);
  std::fprintf(f, "  \"parallel_seconds\": %.4f,\n", parallel.seconds);
  std::fprintf(f, "  \"speedup\": %.2f,\n", speedup);
  std::fprintf(f, "  \"speedup_gate\": %.1f,\n", kSpeedupGate);
  std::fprintf(f, "  \"gate_enforced\": %s,\n",
               enforce_gate ? "true" : "false");
  std::fprintf(f, "  \"rows_bit_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (int i = 0; i < kNumRows; ++i) {
    const Row& r = parallel.rows[i];
    std::fprintf(f,
                 "    {\"circuit\": \"%s\", \"gates\": %d, "
                 "\"checkgen_gates\": %d, \"approx_pct\": %.2f, "
                 "\"coverage_pct\": %.2f, \"area_overhead_pct\": %.2f, "
                 "\"erroneous\": %lld, \"detected\": %lld}%s\n",
                 kSuite[i], r.gates, r.checkgen_gates, r.approx_pct,
                 r.coverage_pct, r.area_overhead_pct,
                 static_cast<long long>(r.erroneous),
                 static_cast<long long>(r.detected),
                 i + 1 < kNumRows ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!identical) return 1;
  if (enforce_gate && speedup < kSpeedupGate) return 1;
  return 0;
}
