// Tests for the pipeline observability layer (core/trace.hpp): disabled-mode
// zero-cost contract, span nesting / self-time accounting, counter atomicity
// under the shared task pool, and the Chrome-tracing / JSON exporters.
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/task_pool.hpp"

// Global allocation counter: the disabled-mode test asserts that spans and
// counter updates do not allocate (or do anything else measurable) when
// tracing is off.
namespace {
std::atomic<int64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace apx {
namespace {

void busy_wait_ms(int ms) {
  auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
  }
}

const trace::PhaseStat* find_phase(const std::vector<trace::PhaseStat>& ps,
                                   const std::string& name) {
  for (const trace::PhaseStat& p : ps) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const trace::CounterStat* find_counter(
    const std::vector<trace::CounterStat>& cs, const std::string& name) {
  for (const trace::CounterStat& c : cs) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(TraceTest, DisabledModeIsFree) {
  trace::set_trace_enabled(false);
  trace::reset();
  // Registering the counters may allocate; the hot loop below must not.
  trace::Counter& mono = trace::counter("test.disabled_mono");
  trace::Counter& gauge =
      trace::counter("test.disabled_gauge", trace::CounterKind::kGauge);

  const int64_t allocs_before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    trace::Span span("test.disabled_span");
    mono.add(1);
    gauge.set_max(i);
  }
  const int64_t allocs_after = g_allocs.load();

  EXPECT_EQ(allocs_after, allocs_before)
      << "disabled spans/counters must not allocate";
  EXPECT_EQ(mono.value(), 0) << "disabled counter adds must be dropped";
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(find_phase(trace::phase_summary(), "test.disabled_span"), nullptr)
      << "disabled spans must not be recorded";
}

TEST(TraceTest, SpanNestingAndSelfTime) {
  trace::reset();
  trace::set_trace_enabled(true);
  {
    trace::Span outer("test.outer");
    busy_wait_ms(2);
    {
      trace::Span inner("test.inner");
      busy_wait_ms(2);
    }
  }
  trace::set_trace_enabled(false);

  std::vector<trace::PhaseStat> phases = trace::phase_summary();
  const trace::PhaseStat* outer = find_phase(phases, "test.outer");
  const trace::PhaseStat* inner = find_phase(phases, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(inner->count, 1);
  EXPECT_GE(outer->total_ms, inner->total_ms);
  // Nested child time is charged to the child: parent self = total - child.
  EXPECT_NEAR(outer->self_ms, outer->total_ms - inner->total_ms, 1e-6);
  // A leaf span's self time is its whole duration.
  EXPECT_NEAR(inner->self_ms, inner->total_ms, 1e-9);
}

TEST(TraceTest, CountersAtomicUnderTaskPool) {
  trace::reset();
  trace::set_trace_enabled(true);

  // Same name resolves to the same counter object from any call site.
  trace::Counter& mono = trace::counter("test.pool_mono");
  EXPECT_EQ(&mono, &trace::counter("test.pool_mono"));
  trace::Counter& gauge =
      trace::counter("test.pool_gauge", trace::CounterKind::kGauge);

  constexpr int64_t kN = 20000;
  TaskPool::instance().parallel_for(
      0, kN,
      [&](int64_t i) {
        mono.add(1);
        gauge.set_max(i);
        trace::Span span("test.pool_span");
      },
      4);
  trace::set_trace_enabled(false);

  EXPECT_EQ(mono.value(), kN);
  EXPECT_EQ(gauge.value(), kN - 1);
  const std::vector<trace::PhaseStat> phases = trace::phase_summary();
  const trace::PhaseStat* span = find_phase(phases, "test.pool_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, kN);
}

TEST(TraceTest, ChromeTraceExportHasPerThreadTracks) {
  trace::reset();
  trace::set_trace_enabled(true);
  trace::counter("test.export_ctr").add(7);
  {
    trace::Span main_span("test.main_thread");
    busy_wait_ms(1);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      trace::Span span("test.worker_thread");
      busy_wait_ms(1);
    });
  }
  for (std::thread& t : threads) t.join();
  trace::set_trace_enabled(false);

  const std::string path =
      ::testing::TempDir() + "apx_trace_test_export.json";
  trace::write_chrome_trace(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"test.main_thread\""), std::string::npos);
  EXPECT_NE(text.find("\"test.worker_thread\""), std::string::npos);
  EXPECT_NE(text.find("\"test.export_ctr\""), std::string::npos);

  // Spans from distinct threads land on distinct tid tracks.
  std::vector<std::string> tids;
  for (size_t pos = 0; (pos = text.find("\"tid\": ", pos)) !=
                       std::string::npos;
       ++pos) {
    size_t end = text.find_first_of(",}", pos);
    std::string tid = text.substr(pos, end - pos);
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) {
      tids.push_back(tid);
    }
  }
  EXPECT_GE(tids.size(), 3u) << "main + 2 worker threads";

  // Brace balance as a cheap well-formedness check (CI re-parses the file
  // with a real JSON parser).
  int64_t depth = 0;
  for (char c : text) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, SummaryJsonAndReset) {
  trace::reset();
  trace::set_trace_enabled(true);
  {
    trace::Span span("test.summary_span");
  }
  trace::counter("test.summary_ctr").add(3);
  trace::set_trace_enabled(false);

  const std::string json = trace::summary_json();
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.summary_span\""), std::string::npos);
  EXPECT_NE(json.find("\"test.summary_ctr\""), std::string::npos);

  std::vector<trace::CounterStat> counters = trace::counter_summary();
  const trace::CounterStat* ctr = find_counter(counters, "test.summary_ctr");
  ASSERT_NE(ctr, nullptr);
  EXPECT_EQ(ctr->value, 3);

  trace::reset();
  EXPECT_EQ(find_phase(trace::phase_summary(), "test.summary_span"), nullptr);
  counters = trace::counter_summary();
  ctr = find_counter(counters, "test.summary_ctr");
  ASSERT_NE(ctr, nullptr) << "reset zeroes counters but keeps them registered";
  EXPECT_EQ(ctr->value, 0);
}

}  // namespace
}  // namespace apx
