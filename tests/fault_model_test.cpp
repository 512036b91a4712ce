// Tests for the fault models of FaultSimEngine (FaultSpec: single and
// multi-site stuck-at and burst-transient faults) plus the bit-identity
// pins of the single-stuck-at path: the exact erroneous/detected counts
// below were captured from the pre-FaultSpec engine, so any change to the
// single-fault substrate's results fails loudly here.
#include "sim/fault_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "baselines/partial_duplication.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/ced.hpp"
#include "core/delay_ced.hpp"
#include "core/task_pool.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "reference_sim.hpp"
#include "reliability/reliability.hpp"
#include "sim/simulator.hpp"

// Global allocation counter for the zero-allocation steady-state tests
// (same pattern as topology_view_test.cpp).
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
// The nothrow forms must come from malloc too: libstdc++ allocates
// std::stable_sort's temporary buffer with them and frees it through the
// replaced delete below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace apx {
namespace {

CedDesign duplication_ced(const std::string& bench) {
  Network net = make_benchmark(bench);
  std::vector<int> checked(net.num_pos());
  std::iota(checked.begin(), checked.end(), 0);
  return build_duplication_ced(net, net, checked);
}

// a, b PIs; g = a & b drives the PO; `orphan` has neither fanouts nor a PO
// (a dead fault site); c0 is a constant-0 node feeding the second PO.
struct DeadSiteFixture {
  Network net;
  NodeId g = kNullNode;
  NodeId orphan = kNullNode;
  NodeId c0 = kNullNode;

  DeadSiteFixture() {
    NodeId a = net.add_pi("a");
    NodeId b = net.add_pi("b");
    g = net.add_and(a, b, "g");
    orphan = net.add_or(a, b, "orphan");
    c0 = net.add_const(false);
    NodeId h = net.add_or(g, c0, "h");
    net.add_po("f", g);
    net.add_po("h", h);
  }
};

// ---- bit-identity pins (captured from the pre-FaultSpec engine) -----------

TEST(FaultModelPinTest, SingleStuckAtCoverageReproducesSeedCounts) {
  CedDesign ced = duplication_ced("cmp8");
  CoverageOptions o;
  o.num_fault_samples = 300;
  o.words_per_fault = 2;
  CoverageResult r = evaluate_ced_coverage(ced, o);
  EXPECT_EQ(r.runs, 38400);
  EXPECT_EQ(r.erroneous, 7261);
  EXPECT_EQ(r.detected, 7261);

  // Non-multiple-of-64 vector count (tail-masked final word).
  CoverageOptions o2 = o;
  o2.vectors_per_fault = 100;
  CoverageResult r2 = evaluate_ced_coverage(ced, o2);
  EXPECT_EQ(r2.runs, 30000);
  EXPECT_EQ(r2.erroneous, 5652);
  EXPECT_EQ(r2.detected, 5652);
}

TEST(FaultModelPinTest, SingleStuckAtReliabilityReproducesSeedRates) {
  Network net = make_benchmark("dec38");
  ReliabilityOptions ro;
  ro.num_fault_samples = 300;
  ro.words_per_fault = 2;
  ReliabilityReport rep = analyze_reliability(net, ro);
  EXPECT_EQ(rep.runs, 38400);
  // Exact doubles (integer counts / runs): EXPECT_EQ pins bit identity.
  EXPECT_EQ(rep.any_output_error_rate, 0.53565104166666666);
  EXPECT_EQ(rep.max_ced_coverage, 0.9449171082697263);
  ASSERT_EQ(rep.outputs.size(), 8u);
  EXPECT_EQ(rep.outputs[0].rate_0_to_1, 0.059947916666666663);
  EXPECT_EQ(rep.outputs[0].rate_1_to_0, 0.0026302083333333334);
  EXPECT_EQ(rep.outputs[7].rate_0_to_1, 0.045468750000000002);
  EXPECT_EQ(rep.outputs[7].rate_1_to_0, 0.0040885416666666665);
}

// ---- FaultSpec semantics --------------------------------------------------

TEST(FaultModelTest, MultiSiteStuckAtMatchesBruteForceResimulation) {
  Network net = make_benchmark("rca8");
  std::vector<NodeId> logic;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) logic.push_back(id);
  }
  ASSERT_GE(logic.size(), 8u);

  // Double, triple and quadruple faults over spread-out sites, mixed
  // polarities (including sites inside each other's fanout cones).
  std::vector<FaultSpec> specs;
  for (int k = 2; k <= 4; ++k) {
    FaultSpec spec;
    for (int s = 0; s < k; ++s) {
      FaultSite site;
      site.node = logic[(s * logic.size()) / k + static_cast<size_t>(k)];
      site.stuck_value = (s ^ k) & 1;
      spec.add(site);
    }
    specs.push_back(spec);
  }

  PatternSet patterns = PatternSet::random(net.num_pis(), 2, 0xBEEF);
  FaultSimEngine engine(net);
  engine.run_batch(
      patterns, specs,
      [&](int i, const FaultSpec& spec, const FaultView& v) {
        const Plane ref = reference_plane(net, patterns, &spec, nullptr);
        for (NodeId id = 0; id < net.num_nodes(); ++id) {
          for (int w = 0; w < v.num_words(); ++w) {
            ASSERT_EQ(v.faulty(id)[w], ref[id][w])
                << "spec " << i << " node " << id << " word " << w;
          }
        }
      });
}

TEST(FaultModelTest, TransientBurstForcesOnlyItsWindow) {
  Network net = make_benchmark("rca8");
  std::vector<NodeId> logic;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) logic.push_back(id);
  }
  PatternSet patterns = PatternSet::random(net.num_pis(), 2, 0xB00);
  const Plane golden = reference_plane(net, patterns, nullptr, nullptr);

  FaultSpec spec;
  FaultSite site;
  site.node = logic[logic.size() / 3];
  site.stuck_value = true;
  site.transient = true;
  site.burst_start = 37;  // straddles the word 0 / word 1 boundary
  site.burst_length = 41;
  spec.add(site);

  FaultSimEngine engine(net);
  engine.run_batch(
      patterns, {spec},
      [&](int, const FaultSpec&, const FaultView& v) {
        const Plane ref = reference_plane(net, patterns, &spec, &golden);
        for (NodeId id = 0; id < net.num_nodes(); ++id) {
          for (int w = 0; w < v.num_words(); ++w) {
            ASSERT_EQ(v.faulty(id)[w], ref[id][w])
                << "node " << id << " word " << w;
            // Every node's deviation is confined to the burst window:
            // outside it the site holds golden, so nothing can differ.
            const uint64_t diff = v.faulty(id)[w] ^ v.golden(id)[w];
            EXPECT_EQ(diff & ~window_mask(site.burst_start, site.burst_length,
                                          w),
                      0u)
                << "node " << id << " word " << w;
          }
        }
      });
}

TEST(FaultModelTest, ModelCampaignsBitIdenticalAcrossThreadCounts) {
  CedDesign ced = duplication_ced("cmp4");
  for (FaultModel model :
       {FaultModel::kMultiStuckAt, FaultModel::kTransientBurst}) {
    CoverageOptions base;
    base.num_fault_samples = 200;
    base.words_per_fault = 2;
    base.vectors_per_fault = 100;  // exercise the tail-masked final word
    base.model = model;
    base.sites_per_fault = 2;
    base.burst_vectors = 24;

    auto run = [&](int threads) {
      const ScopedThreadCount limit(threads);
      return evaluate_ced_coverage(ced, base);
    };
    CoverageResult r1 = run(1);
    CoverageResult r4 = run(4);
    EXPECT_GT(r1.erroneous, 0) << fault_model_name(model);
    EXPECT_EQ(r1.runs, r4.runs) << fault_model_name(model);
    EXPECT_EQ(r1.erroneous, r4.erroneous) << fault_model_name(model);
    EXPECT_EQ(r1.detected, r4.detected) << fault_model_name(model);
  }

  // Reliability and partial duplication read the same campaign knobs,
  // vectors_per_fault included.
  Network mapped = technology_map(quick_synthesis(make_benchmark("cmp4")));
  ReliabilityOptions ro;
  ro.num_fault_samples = 200;
  ro.vectors_per_fault = 100;
  PartialDuplicationOptions po;
  po.num_fault_samples = 200;
  po.vectors_per_fault = 100;
  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return std::pair{analyze_reliability(mapped, ro),
                     build_partial_duplication(mapped, 0.9, po)};
  };
  const auto [rel1, dup1] = run(1);
  const auto [rel4, dup4] = run(4);
  EXPECT_EQ(rel1.runs, 200 * 100);
  EXPECT_GT(rel1.any_output_error_rate, 0.0);
  EXPECT_EQ(rel1.any_output_error_rate, rel4.any_output_error_rate);
  EXPECT_EQ(rel1.max_ced_coverage, rel4.max_ced_coverage);
  for (size_t o = 0; o < rel1.outputs.size(); ++o) {
    EXPECT_EQ(rel1.outputs[o].rate_0_to_1, rel4.outputs[o].rate_0_to_1);
    EXPECT_EQ(rel1.outputs[o].rate_1_to_0, rel4.outputs[o].rate_1_to_0);
  }
  EXPECT_FALSE(dup1.duplicated_pos.empty());
  EXPECT_EQ(dup1.duplicated_pos, dup4.duplicated_pos);
  EXPECT_EQ(dup1.estimated_coverage, dup4.estimated_coverage);
}

TEST(FaultModelTest, ModelKnobChangesTheSampledCampaign) {
  CedDesign ced = duplication_ced("cmp4");
  CoverageOptions o;
  o.num_fault_samples = 200;
  o.words_per_fault = 2;
  CoverageResult single = evaluate_ced_coverage(ced, o);
  o.model = FaultModel::kMultiStuckAt;
  CoverageResult dbl = evaluate_ced_coverage(ced, o);
  // Double faults excite strictly more often than single faults here.
  EXPECT_GT(dbl.erroneous, single.erroneous);
}

TEST(FaultModelTest, ReliabilityModelsBitIdenticalAcrossThreadCounts) {
  Network net = make_benchmark("dec38");
  ReliabilityOptions opt;
  opt.num_fault_samples = 200;
  opt.words_per_fault = 2;
  opt.model = FaultModel::kTransientBurst;
  opt.burst_vectors = 16;
  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return analyze_reliability(net, opt);
  };
  ReliabilityReport r1 = run(1);
  ReliabilityReport r4 = run(4);
  EXPECT_GT(r1.any_output_error_rate, 0.0);
  EXPECT_EQ(r1.any_output_error_rate, r4.any_output_error_rate);
  EXPECT_EQ(r1.max_ced_coverage, r4.max_ced_coverage);
  ASSERT_EQ(r1.outputs.size(), r4.outputs.size());
  for (size_t o = 0; o < r1.outputs.size(); ++o) {
    EXPECT_EQ(r1.outputs[o].rate_0_to_1, r4.outputs[o].rate_0_to_1);
    EXPECT_EQ(r1.outputs[o].rate_1_to_0, r4.outputs[o].rate_1_to_0);
  }
}

TEST(FaultModelTest, PartialDuplicationSelectionDeterministicUnderModels) {
  Network mapped = technology_map(quick_synthesis(make_benchmark("cmp4")));
  PartialDuplicationOptions opt;
  opt.num_fault_samples = 200;
  opt.words_per_fault = 2;
  opt.model = FaultModel::kMultiStuckAt;
  opt.sites_per_fault = 2;
  auto run = [&](int threads) {
    const ScopedThreadCount limit(threads);
    return build_partial_duplication(mapped, 0.9, opt);
  };
  PartialDuplicationResult r1 = run(1);
  PartialDuplicationResult r4 = run(4);
  EXPECT_EQ(r1.duplicated_pos, r4.duplicated_pos);
  EXPECT_EQ(r1.estimated_coverage, r4.estimated_coverage);
  EXPECT_FALSE(r1.duplicated_pos.empty());
}

// ---- dead sites ------------------------------------------------------------

TEST(FaultModelTest, CampaignRejectsConstantSiteOfSamePolarity) {
  DeadSiteFixture fx;
  FaultSimEngine engine(fx.net);
  CampaignOptions opt;
  opt.num_fault_samples = 4;
  EXPECT_THROW(
      engine.run_campaign(
          opt, [&](uint64_t) { return FaultSpec::stuck_at(fx.c0, false); },
          [](int, const FaultSpec&, const FaultView&) {}),
      std::logic_error);
  // Opposite polarity on the same constant is a live (excitable) fault.
  EXPECT_TRUE(engine.is_live_site(fx.c0, true));
  EXPECT_FALSE(engine.is_live_site(fx.c0, false));
}

TEST(FaultModelTest, CampaignRejectsUnconnectedSite) {
  DeadSiteFixture fx;
  FaultSimEngine engine(fx.net);
  EXPECT_FALSE(engine.is_live_site(fx.orphan, true));
  CampaignOptions opt;
  opt.num_fault_samples = 4;
  EXPECT_THROW(
      engine.run_campaign(
          opt, [&](uint64_t) { return FaultSpec::stuck_at(fx.orphan, true); },
          [](int, const FaultSpec&, const FaultView&) {}),
      std::logic_error);

  // An explicit fault list is the caller's: run_batch simulates the dead
  // site, which trivially stays golden at the PO driver.
  int visits = 0;
  engine.run_batch(PatternSet::random(fx.net.num_pis(), 1, 1),
                   {FaultSpec::stuck_at(fx.orphan, true)},
                   [&](int, const FaultSpec&, const FaultView& v) {
                     ++visits;
                     EXPECT_FALSE(v.touched(fx.g));
                   });
  EXPECT_EQ(visits, 1);
}

// ---- validation -----------------------------------------------------------

TEST(FaultModelTest, SpecValidationCatchesStructuralErrors) {
  Network net = make_benchmark("c17");
  FaultSimEngine engine(net);
  PatternSet patterns = PatternSet::random(net.num_pis(), 1, 1);
  auto ignore = [](int, const FaultSpec&, const FaultView&) {};

  FaultSpec empty;
  EXPECT_THROW(engine.run_batch(patterns, {empty}, ignore),
               std::logic_error);

  std::vector<NodeId> logic;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) logic.push_back(id);
  }
  FaultSpec dup;
  dup.add({logic[0], false, false, 0, 0});
  dup.add({logic[0], true, false, 0, 0});
  EXPECT_THROW(engine.run_batch(patterns, {dup}, ignore), std::logic_error);

  FaultSpec window;
  FaultSite t;
  t.node = logic[0];
  t.transient = true;
  t.burst_start = 64;  // beyond the 64-vector batch
  t.burst_length = 8;
  window.add(t);
  EXPECT_THROW(engine.run_batch(patterns, {window}, ignore),
               std::logic_error);

  FaultSpec overflow;
  for (int s = 0; s < FaultSpec::kMaxSites; ++s) {
    overflow.add({logic[s], false, false, 0, 0});
  }
  EXPECT_THROW(overflow.add({logic[4], false, false, 0, 0}),
               std::logic_error);
}

TEST(FaultModelTest, MakeSamplerValidatesItsInputs) {
  CampaignOptions opt;
  EXPECT_THROW(FaultSimEngine::make_sampler({}, opt), std::invalid_argument);
  opt.model = FaultModel::kMultiStuckAt;
  opt.sites_per_fault = 3;
  EXPECT_THROW(FaultSimEngine::make_sampler({1, 2}, opt),
               std::invalid_argument);
}

TEST(FaultModelTest, StockSamplersArePureInTheSampleSeed) {
  CampaignOptions opt;
  opt.sites_per_fault = 3;
  opt.burst_vectors = 10;
  std::vector<NodeId> sites{3, 4, 5, 6, 7, 8};
  for (FaultModel model :
       {FaultModel::kSingleStuckAt, FaultModel::kMultiStuckAt,
        FaultModel::kTransientBurst}) {
    opt.model = model;
    auto s1 = FaultSimEngine::make_sampler(sites, opt);
    auto s2 = FaultSimEngine::make_sampler(sites, opt);
    for (uint64_t seed : {1ull, 42ull, 0xDEADull}) {
      const FaultSpec a = s1(seed);
      const FaultSpec b = s2(seed);
      ASSERT_EQ(a.num_sites, b.num_sites);
      for (int s = 0; s < a.num_sites; ++s) {
        EXPECT_EQ(a.sites[s].node, b.sites[s].node);
        EXPECT_EQ(a.sites[s].stuck_value, b.sites[s].stuck_value);
        EXPECT_EQ(a.sites[s].transient, b.sites[s].transient);
        EXPECT_EQ(a.sites[s].burst_start, b.sites[s].burst_start);
        EXPECT_EQ(a.sites[s].burst_length, b.sites[s].burst_length);
        // Multi-site draws are distinct nodes.
        for (int t = 0; t < s; ++t) {
          EXPECT_NE(a.sites[s].node, a.sites[t].node);
        }
      }
    }
  }
}

// ---- allocation-free steady state ----------------------------------------

// The injection path itself never allocates once warmed: a batch of every
// fault allocates exactly as often as a batch of one (per-call set-up
// only, independent of the fault count). The test names keep the classes
// that injected before FaultSimEngine became the only injector.

// Both polarities of every logic node of `net`.
std::vector<FaultSpec> every_stuck_at(const Network& net) {
  std::vector<FaultSpec> all;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind != NodeKind::kLogic) continue;
    all.push_back(FaultSpec::stuck_at(id, false));
    all.push_back(FaultSpec::stuck_at(id, true));
  }
  return all;
}

// Allocations of one warmed run_batch over `faults`, minus those of one
// over the first fault alone.
int64_t extra_allocs_for_all_faults(FaultSimEngine& engine,
                                    const PatternSet& patterns,
                                    const std::vector<FaultSpec>& all,
                                    const FaultSimEngine::Visitor& visit) {
  const ScopedThreadCount serial(1);
  auto allocs_of = [&](const std::vector<FaultSpec>& faults) {
    const int64_t before = g_allocs.load(std::memory_order_relaxed);
    engine.run_batch(patterns, faults, visit);
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  const std::vector<FaultSpec> one(all.begin(), all.begin() + 1);
  allocs_of(all);  // warm-up: sizes the worker arena and event buckets
  const int64_t single = allocs_of(one);
  return allocs_of(all) - single;
}

TEST(FaultModelTest, SimulatorStuckAtInjectionSteadyStateDoesNotAllocate) {
  Network net = make_benchmark("c17");
  const std::vector<FaultSpec> all = every_stuck_at(net);
  ASSERT_EQ(all.size(), 2u * net.num_logic_nodes());
  PatternSet patterns = PatternSet::random(net.num_pis(), 4, 33);
  FaultSimEngine engine(net);
  uint64_t sink = 0;
  const FaultSimEngine::Visitor visit = [&](int, const FaultSpec& f,
                                            const FaultView& v) {
    sink ^= v.faulty(f.sites[0].node)[0];
  };
  EXPECT_EQ(extra_allocs_for_all_faults(engine, patterns, all, visit), 0)
      << "sink=" << sink;
}

// Transition faults as delay CED injects them: a stuck-at whose error row
// is masked by the transitions launched from the previous vector of the
// same batch (launched_vectors), read from the golden plane.
TEST(FaultModelTest, TransitionSimulatorSteadyStateDoesNotAllocate) {
  Network net = make_benchmark("c17");
  const std::vector<FaultSpec> all = every_stuck_at(net);
  constexpr int kWords = 4;
  PatternSet capture = PatternSet::random(net.num_pis(), kWords, 22);
  FaultSimEngine engine(net);
  std::vector<uint64_t> err_row(kWords);
  uint64_t sink = 0;
  const FaultSimEngine::Visitor visit = [&](int, const FaultSpec& f,
                                            const FaultView& v) {
    const NodeId site = f.sites[0].node;
    for (int w = 0; w < kWords; ++w) {
      err_row[w] = (v.golden(site)[w] ^ v.faulty(site)[w]) &
                   launched_vectors(v, f.sites[0], w);
      sink ^= err_row[w];
    }
  };
  EXPECT_EQ(extra_allocs_for_all_faults(engine, capture, all, visit), 0)
      << "sink=" << sink;
}

}  // namespace
}  // namespace apx
