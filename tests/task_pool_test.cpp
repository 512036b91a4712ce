// Tests for the shared work-stealing task pool (core/task_pool.hpp): the
// scheduling invariants (every index exactly once, inline fallback,
// exception propagation, nested submission), the APX_THREADS policy and
// its scoped override, and the bit-identity contract on the real consumers —
// analyze_reliability and evaluate_ced_coverage across 1/2/8 workers.
#include "core/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/ced.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "reliability/reliability.hpp"

namespace apx {
namespace {

TEST(TaskPoolTest, ParseThreadEnv) {
  EXPECT_EQ(parse_thread_env(nullptr), 0);
  EXPECT_EQ(parse_thread_env(""), 0);
  EXPECT_EQ(parse_thread_env("junk"), 0);
  EXPECT_EQ(parse_thread_env("4x"), 0);
  EXPECT_EQ(parse_thread_env("-3"), 0);
  EXPECT_EQ(parse_thread_env("0"), 0);
  EXPECT_EQ(parse_thread_env("1"), 1);
  EXPECT_EQ(parse_thread_env("8"), 8);
  // Absurd requests clamp to the pool's hard cap instead of spawning.
  EXPECT_EQ(parse_thread_env("100000"), TaskPool::kMaxWorkers);
}

// The scoped limit restores whatever override was in effect before it,
// so nested limits unwind in order and the outermost one clears it.
TEST(TaskPoolTest, ScopedThreadCountRestoresPreviousOverride) {
  const int policy = thread_count();
  {
    const ScopedThreadCount outer(3);
    EXPECT_EQ(thread_count(), 3);
    {
      const ScopedThreadCount inner(TaskPool::kMaxWorkers + 7);
      EXPECT_EQ(thread_count(), TaskPool::kMaxWorkers);  // clamped
    }
    EXPECT_EQ(thread_count(), 3);
    {
      const ScopedThreadCount cleared(0);
      EXPECT_EQ(thread_count(), policy);
    }
    EXPECT_EQ(thread_count(), 3);
  }
  EXPECT_EQ(thread_count(), policy);
}

TEST(TaskPoolTest, EveryIndexExactlyOnce) {
  const int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  TaskPool::instance().parallel_for(
      0, n, [&](int64_t i) { hits[i].fetch_add(1); }, /*max_slots=*/8,
      /*grain=*/7);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, SingleSlotRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  bool slot_zero = true;
  TaskPool::instance().parallel_for_slotted(
      0, 64, /*max_slots=*/1, /*grain=*/1, [&](int slot, int64_t) {
        on_caller = on_caller && std::this_thread::get_id() == caller;
        slot_zero = slot_zero && slot == 0;
      });
  EXPECT_TRUE(on_caller);
  EXPECT_TRUE(slot_zero);
}

// APX_THREADS=1 is delivered through the same policy path as a limit of 1
// (thread_count() consults the override, then the cached env parse):
// loops must degrade to the inline serial path.
TEST(TaskPoolTest, ThreadCountOneFallsBackToInline) {
  const ScopedThreadCount limit(1);
  EXPECT_EQ(thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  TaskPool::instance().parallel_for(
      0, 128, [&](int64_t) {
        on_caller = on_caller && std::this_thread::get_id() == caller;
      });  // max_slots=0 -> policy -> 1 -> inline
  EXPECT_TRUE(on_caller);
}

TEST(TaskPoolTest, ExceptionPropagatesAndPoolSurvives) {
  EXPECT_THROW(
      TaskPool::instance().parallel_for(
          0, 1000,
          [&](int64_t i) {
            if (i == 537) throw std::runtime_error("chunk failure");
          },
          /*max_slots=*/4),
      std::runtime_error);
  // Inline path must propagate identically.
  EXPECT_THROW(
      TaskPool::instance().parallel_for(
          0, 10, [&](int64_t) { throw std::runtime_error("inline failure"); },
          /*max_slots=*/1),
      std::runtime_error);
  // The pool remains fully usable after a failed loop.
  std::atomic<int> count{0};
  TaskPool::instance().parallel_for(
      0, 100, [&](int64_t) { count.fetch_add(1); }, /*max_slots=*/4);
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskPoolTest, NestedSubmissionCompletes) {
  const int outer = 6, inner = 200;
  std::vector<std::atomic<int>> hits(outer * inner);
  TaskPool::instance().parallel_for(
      0, outer,
      [&](int64_t i) {
        TaskPool::instance().parallel_for(
            0, inner,
            [&](int64_t j) { hits[i * inner + j].fetch_add(1); },
            /*max_slots=*/4);
      },
      /*max_slots=*/4);
  for (int k = 0; k < outer * inner; ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "cell " << k;
  }
}

// --- Bit-identity on the real consumers ---------------------------------

TEST(TaskPoolDeterminism, AnalyzeReliabilityAcrossThreadCounts) {
  Network mapped = technology_map(quick_synthesis(make_benchmark("cmb")));
  ReliabilityOptions opt;
  opt.num_fault_samples = 300;
  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return analyze_reliability(mapped, opt);
  };
  ReliabilityReport serial = run(1);
  ASSERT_GT(serial.runs, 0);
  for (int threads : {2, 8}) {
    ReliabilityReport parallel = run(threads);
    ASSERT_EQ(parallel.outputs.size(), serial.outputs.size());
    for (size_t o = 0; o < serial.outputs.size(); ++o) {
      EXPECT_EQ(parallel.outputs[o].rate_0_to_1, serial.outputs[o].rate_0_to_1)
          << "po " << o << " threads " << threads;
      EXPECT_EQ(parallel.outputs[o].rate_1_to_0, serial.outputs[o].rate_1_to_0)
          << "po " << o << " threads " << threads;
    }
    EXPECT_EQ(parallel.any_output_error_rate, serial.any_output_error_rate);
    EXPECT_EQ(parallel.max_ced_coverage, serial.max_ced_coverage);
  }
}

TEST(TaskPoolDeterminism, CedCoverageAcrossThreadCounts) {
  Network mapped = technology_map(quick_synthesis(make_benchmark("cmb")));
  std::vector<ApproxDirection> dirs(mapped.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(mapped, mapped, dirs);
  CoverageOptions opt;
  opt.num_fault_samples = 300;
  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return evaluate_ced_coverage(ced, opt);
  };
  CoverageResult serial = run(1);
  ASSERT_GT(serial.runs, 0);
  for (int threads : {2, 8}) {
    CoverageResult parallel = run(threads);
    EXPECT_EQ(parallel.erroneous, serial.erroneous) << "threads " << threads;
    EXPECT_EQ(parallel.detected, serial.detected) << "threads " << threads;
    EXPECT_EQ(parallel.runs, serial.runs) << "threads " << threads;
  }
}

}  // namespace
}  // namespace apx
