#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "network/ordering.hpp"

namespace apx {
namespace {

PipelineOptions fast_options(double threshold = 0.1) {
  PipelineOptions opt;
  opt.approx.significance_threshold = threshold;
  opt.reliability.num_fault_samples = 300;
  opt.coverage.num_fault_samples = 300;
  return opt;
}

TEST(PipelineTest, EndToEndOnComparator) {
  Network net = make_benchmark("cmp4");
  PipelineResult r = run_ced_pipeline(net, fast_options());
  EXPECT_TRUE(r.synthesis.all_verified());
  EXPECT_EQ(r.directions.size(), static_cast<size_t>(net.num_pos()));
  EXPECT_GT(r.coverage.runs, 0);
  EXPECT_GE(r.coverage.coverage(), 0.0);
  EXPECT_LE(r.coverage.coverage(), 1.0);
  EXPECT_GT(r.overheads.functional_area, 0);
  EXPECT_GT(r.mean_approximation_pct(), 0.5);
}

TEST(PipelineTest, CoverageBelowMaxCoverageBound) {
  // Achieved CED coverage cannot exceed the reliability-derived maximum by
  // more than sampling noise (paper Table 1: Max vs Achieved).
  Network net = make_benchmark("cordic");
  PipelineResult r = run_ced_pipeline(net, fast_options(0.05));
  EXPECT_LE(r.coverage.coverage(), r.reliability.max_ced_coverage + 0.12);
}

TEST(PipelineTest, ApproxCircuitIsFasterThanOriginal) {
  // The paper reports ~38% lower delay for the approximate circuit; at the
  // very least it must never be slower (that is the no-performance-penalty
  // requirement for non-intrusive CED).
  for (const char* name : {"cmb", "cordic"}) {
    Network net = make_benchmark(name);
    PipelineResult r = run_ced_pipeline(net, fast_options(0.1));
    EXPECT_LE(r.checkgen_delay, r.original_delay) << name;
  }
}

TEST(PipelineTest, LogicSharingReducesOverhead) {
  Network net = make_benchmark("cmb");
  PipelineOptions base = fast_options(0.05);
  PipelineResult plain = run_ced_pipeline(net, base);
  base.logic_sharing = true;
  PipelineResult shared = run_ced_pipeline(net, base);
  EXPECT_LE(shared.ced.overhead_area(), plain.ced.overhead_area());
}

TEST(PipelineTest, ThresholdSweepsTradeOff) {
  // Higher threshold -> smaller check generator (the paper's fine-grained
  // overhead/coverage trade-off).
  Network net = make_benchmark("cordic");
  PipelineResult tight = run_ced_pipeline(net, fast_options(0.01));
  PipelineResult loose = run_ced_pipeline(net, fast_options(0.5));
  EXPECT_LE(loose.mapped_checkgen.num_logic_nodes(),
            tight.mapped_checkgen.num_logic_nodes());
}

// One row of a benchmark suite run: the per-circuit outputs the pool's
// determinism contract covers.
struct SuiteRow {
  int gates = 0;
  int checkgen_gates = 0;
  double approx_pct = 0.0;
  double area_overhead_pct = 0.0;
  int64_t erroneous = 0;
  int64_t detected = 0;

  // Doubles compared as bit patterns: the contract is bit-identity.
  bool operator==(const SuiteRow& o) const {
    return gates == o.gates && checkgen_gates == o.checkgen_gates &&
           std::memcmp(&approx_pct, &o.approx_pct, sizeof(double)) == 0 &&
           std::memcmp(&area_overhead_pct, &o.area_overhead_pct,
                       sizeof(double)) == 0 &&
           erroneous == o.erroneous && detected == o.detected;
  }
};

// Runs one pipeline per circuit as shared-pool tasks, with `threads`
// capping both the row tasks and the campaigns inside them.
std::vector<SuiteRow> run_suite(const std::vector<Network>& nets,
                                int threads) {
  const PipelineOptions opt = fast_options(0.12);
  const ScopedThreadCount limit(threads);
  std::vector<SuiteRow> rows(nets.size());
  TaskPool::instance().parallel_for(
      0, static_cast<int64_t>(nets.size()),
      [&](int64_t i) {
        PipelineResult r = run_ced_pipeline(nets[i], opt);
        SuiteRow& row = rows[i];
        row.gates = r.mapped_original.num_logic_nodes();
        row.checkgen_gates = r.mapped_checkgen.num_logic_nodes();
        row.approx_pct = 100.0 * r.mean_approximation_pct();
        row.area_overhead_pct = r.overheads.area_overhead_pct();
        row.erroneous = r.coverage.erroneous;
        row.detected = r.coverage.detected;
      });
  return rows;
}

std::vector<Network> suite(std::initializer_list<const char*> names) {
  std::vector<Network> nets;
  for (const char* name : names) nets.push_back(make_benchmark(name));
  return nets;
}

// Rows are bit-identical at 1 and 4 workers, and tracing (spans and
// counters) observes without perturbing them.
TEST(PipelineTest, SuiteRowsBitIdenticalAcrossWorkersAndTracing) {
  const std::vector<Network> nets = suite({"cmb", "cordic", "term1"});
  OrderCache::instance().clear();
  const std::vector<SuiteRow> serial = run_suite(nets, 1);
  OrderCache::instance().clear();
  const std::vector<SuiteRow> parallel = run_suite(nets, 4);
  trace::reset();
  trace::set_trace_enabled(true);
  const std::vector<SuiteRow> traced = run_suite(nets, 4);
  trace::set_trace_enabled(false);
  trace::reset();

  for (size_t i = 0; i < nets.size(); ++i) {
    EXPECT_GT(serial[i].erroneous, 0) << nets[i].name();
    EXPECT_TRUE(parallel[i] == serial[i]) << nets[i].name();
    EXPECT_TRUE(traced[i] == serial[i]) << nets[i].name();
  }
}

// Order-cache and sifting counters of one traced suite run.
struct CacheCounts {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t budget_skips = 0;
  int64_t view_hits = 0;
  int64_t reorders = 0;
};

CacheCounts traced_suite(const std::vector<Network>& nets,
                         std::vector<SuiteRow>* rows) {
  trace::reset();
  trace::set_trace_enabled(true);
  *rows = run_suite(nets, 1);
  trace::set_trace_enabled(false);
  CacheCounts c;
  c.hits = trace::counter("bdd.order_cache_hits").value();
  c.misses = trace::counter("bdd.order_cache_misses").value();
  c.budget_skips = trace::counter("bdd.reorder_skipped_budget").value();
  c.view_hits = trace::counter("topo.view_hits").value();
  c.reorders = trace::counter("bdd.reorder_runs").value();
  trace::reset();
  return c;
}

// A repeat run of the suite reuses every converged variable order: each
// row's oracle finds its order in the cache, the reorder budget absorbs
// the requests that remain, and no BDD is sifted again. i2 is the row whose
// warm rebuilds meet the budget.
TEST(PipelineTest, WarmOrderCacheSkipsEverySift) {
  const std::vector<Network> nets = suite({"cmb", "cordic", "term1", "i2"});
  OrderCache::instance().clear();
  std::vector<SuiteRow> cold, warm;
  const CacheCounts first = traced_suite(nets, &cold);
  EXPECT_GT(first.misses, 0);
  EXPECT_GT(first.reorders, 0);

  const CacheCounts second = traced_suite(nets, &warm);
  EXPECT_TRUE(warm == cold);
  EXPECT_EQ(second.hits, static_cast<int64_t>(nets.size()));
  EXPECT_EQ(second.misses, 0);
  EXPECT_GT(second.budget_skips, 0);
  EXPECT_GT(second.view_hits, 0);
  EXPECT_EQ(second.reorders, 0);
}

}  // namespace
}  // namespace apx
