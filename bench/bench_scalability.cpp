// Scalability study (paper Sec. 4 prose: the synthesis "scales with circuit
// size"; i10 — the largest benchmark — synthesized in 5m28s on 2007-era
// hardware). Uses google-benchmark to time the synthesis stages across the
// benchmark size ladder.
#include <benchmark/benchmark.h>

#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
#include "core/pipeline.hpp"
#include "core/task_pool.hpp"
#include "mapping/optimize.hpp"
#include "reliability/reliability.hpp"

namespace {

using namespace apx;

const char* kLadder[] = {"cmb", "cordic", "term1", "x1", "i2", "frg2"};

void BM_ApproxSynthesis(benchmark::State& state) {
  Network net = make_benchmark(kLadder[state.range(0)]);
  Network optimized = quick_synthesis(net);
  Network mapped = technology_map(optimized);
  ReliabilityOptions rel_opt;
  rel_opt.num_fault_samples = 300;
  std::vector<ApproxDirection> dirs =
      choose_directions(analyze_reliability(mapped, rel_opt));
  ApproxOptions opt;
  opt.significance_threshold = 0.12;
  for (auto _ : state) {
    ApproxResult r = synthesize_approximation(optimized, dirs, opt);
    benchmark::DoNotOptimize(r.approx.num_nodes());
  }
  state.counters["gates"] = mapped.num_logic_nodes();
}
BENCHMARK(BM_ApproxSynthesis)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

void BM_ReliabilityAnalysis(benchmark::State& state) {
  Network mapped =
      technology_map(quick_synthesis(make_benchmark(kLadder[state.range(0)])));
  ReliabilityOptions opt;
  opt.num_fault_samples = 300;
  for (auto _ : state) {
    ReliabilityReport r = analyze_reliability(mapped, opt);
    benchmark::DoNotOptimize(r.any_output_error_rate);
  }
  state.counters["gates"] = mapped.num_logic_nodes();
}
BENCHMARK(BM_ReliabilityAnalysis)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

// Whole-suite scaling on the shared task pool: every circuit of the ladder
// runs as one run_ced_pipeline task, and the per-row tasks plus their inner
// fault campaigns share the pool's workers (Arg = worker cap; 1 = serial
// reference, 0 = the APX_THREADS policy). Per-row results are
// bit-identical across Args by the pool's determinism contract.
void BM_PipelineSuite(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::vector<Network> nets;
  for (const char* name : kLadder) nets.push_back(make_benchmark(name));
  PipelineOptions opt;
  opt.approx.significance_threshold = 0.12;
  opt.reliability.num_fault_samples = 300;
  opt.coverage.num_fault_samples = 300;
  // One limit for the row tasks and the loops inside them, so Arg(1) is a
  // genuinely serial reference.
  const ScopedThreadCount limit(threads);
  for (auto _ : state) {
    int64_t gates = 0;
    std::vector<PipelineResult> rows(nets.size());
    TaskPool::instance().parallel_for(
        0, static_cast<int64_t>(nets.size()),
        [&](int64_t i) { rows[i] = run_ced_pipeline(nets[i], opt); });
    for (const PipelineResult& r : rows) {
      gates += r.mapped_original.num_logic_nodes();
    }
    benchmark::DoNotOptimize(gates);
  }
}
BENCHMARK(BM_PipelineSuite)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_TechnologyMap(benchmark::State& state) {
  Network optimized = quick_synthesis(make_benchmark(kLadder[state.range(0)]));
  for (auto _ : state) {
    Network mapped = technology_map(optimized);
    benchmark::DoNotOptimize(mapped.num_nodes());
  }
}
BENCHMARK(BM_TechnologyMap)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
