#include "reliability/reliability.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/task_pool.hpp"
#include "reference_sim.hpp"
#include "sim/kernels.hpp"
#include "sim/rng.hpp"

namespace apx {
namespace {

// A wide AND cone: output is 1 rarely, so faults overwhelmingly cause
// 0->1 errors => 0-approximation must dominate.
Network and_cone(int width) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < width; ++i) pis.push_back(net.add_pi("x" + std::to_string(i)));
  NodeId acc = pis[0];
  for (int i = 1; i < width; ++i) acc = net.add_and(acc, pis[i]);
  net.add_po("f", acc);
  return net;
}

Network or_cone(int width) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < width; ++i) pis.push_back(net.add_pi("x" + std::to_string(i)));
  NodeId acc = pis[0];
  for (int i = 1; i < width; ++i) acc = net.add_or(acc, pis[i]);
  net.add_po("f", acc);
  return net;
}

TEST(ReliabilityTest, AndConeSkewsToZeroApprox) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 400;
  ReliabilityReport r = analyze_reliability(and_cone(6), opt);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_GT(r.outputs[0].rate_0_to_1, r.outputs[0].rate_1_to_0);
  EXPECT_EQ(r.outputs[0].dominant(), ApproxDirection::kZeroApprox);
  EXPECT_GT(r.outputs[0].skew(), 0.8);
  EXPECT_GT(r.max_ced_coverage, 0.8);
  EXPECT_LE(r.max_ced_coverage, 1.0 + 1e-12);
}

TEST(ReliabilityTest, OrConeSkewsToOneApprox) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 400;
  ReliabilityReport r = analyze_reliability(or_cone(6), opt);
  EXPECT_EQ(r.outputs[0].dominant(), ApproxDirection::kOneApprox);
  EXPECT_GT(r.outputs[0].rate_1_to_0, r.outputs[0].rate_0_to_1);
}

TEST(ReliabilityTest, XorHasNoSkew) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  net.add_po("f", net.add_xor(a, b));
  ReliabilityOptions opt;
  opt.num_fault_samples = 500;
  ReliabilityReport r = analyze_reliability(net, opt);
  // XOR output is unbiased; the two directions should be within noise.
  EXPECT_NEAR(r.outputs[0].rate_0_to_1, r.outputs[0].rate_1_to_0, 0.05);
  // Max coverage therefore hovers near the dominant share (about half).
  EXPECT_LT(r.max_ced_coverage, 0.75);
}

TEST(ReliabilityTest, RatesAreConsistent) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 300;
  Network net = and_cone(4);
  ReliabilityReport r = analyze_reliability(net, opt);
  EXPECT_GT(r.runs, 0);
  // Single output: any_output_error_rate equals the output's total rate.
  EXPECT_NEAR(r.any_output_error_rate, r.outputs[0].total_rate(), 1e-12);
  // Determinism for a fixed seed.
  ReliabilityReport r2 = analyze_reliability(net, opt);
  EXPECT_DOUBLE_EQ(r.any_output_error_rate, r2.any_output_error_rate);
  EXPECT_DOUBLE_EQ(r.max_ced_coverage, r2.max_ced_coverage);
}

TEST(ReliabilityTest, ChooseDirectionsMatchesDominant) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 200;
  Network net = and_cone(4);
  NodeId a = net.pis()[0];
  NodeId b = net.pis()[1];
  net.add_po("g", net.add_or(a, b));
  ReliabilityReport r = analyze_reliability(net, opt);
  auto dirs = choose_directions(r);
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_EQ(dirs[0], ApproxDirection::kZeroApprox);
  EXPECT_EQ(dirs[1], ApproxDirection::kOneApprox);
}

TEST(ReliabilityTest, EmptyNetworkYieldsEmptyReport) {
  Network net;
  net.add_pi("a");
  ReliabilityReport r = analyze_reliability(net);
  EXPECT_EQ(r.runs, 0);
  EXPECT_TRUE(r.outputs.empty());
}

// 16 PIs feeding 80 two-input gates, each gate over two earlier signals and
// each gate a PO: more than 64 outputs, and a fault's errors reach outputs
// far apart in PO order.
Network wide_network() {
  Network net;
  std::vector<NodeId> sig;
  for (int i = 0; i < 16; ++i) sig.push_back(net.add_pi("x" + std::to_string(i)));
  SplitMix64 rng(0x81DE);
  for (int g = 0; g < 80; ++g) {
    const size_t i = rng() % sig.size();
    const size_t j = (i + 1 + rng() % (sig.size() - 1)) % sig.size();
    const NodeId a = sig[i], b = sig[j];
    const NodeId n = g % 3 == 0   ? net.add_and(a, b)
                     : g % 3 == 1 ? net.add_or(a, b)
                                  : net.add_xor(a, b);
    sig.push_back(n);
    net.add_po("y" + std::to_string(g), n);
  }
  return net;
}

// analyze_reliability packs the error states of 40 POs into each 64-bit
// word of a signature key.
constexpr int kPosPerKeyWord = 40;

struct TwoPassReference {
  ReliabilityReport report;
  int64_t multi_po_vectors = 0;  ///< erring vectors with >= 2 erring POs
  /// Erring vectors with erring POs in both the first key word (POs below
  /// kPosPerKeyWord) and a later one.
  int64_t spanning_key_words = 0;
};

// The two-pass form of analyze_reliability, from the campaign's seed
// contract: sample i's fault is drawn from derive_seed(seed, i), batch b's
// patterns from derive_seed(seed ^ kPatternStream, b). Pass 1 counts the
// directional errors by full re-simulation (reference_sim.hpp); pass 2
// replays every sample through run_batch and counts the vectors on which
// some PO erred in its dominant direction.
TwoPassReference two_pass_reference(const Network& net,
                                    const ReliabilityOptions& opt) {
  std::vector<NodeId> sites;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) sites.push_back(id);
  }
  FaultSimEngine::Sampler sampler =
      opt.model == FaultModel::kSingleStuckAt
          ? [&sites](uint64_t seed) {
              const uint64_t k = SplitMix64(seed).next() % (2 * sites.size());
              return FaultSpec::stuck_at(sites[k / 2], (k & 1) != 0);
            }
          : FaultSimEngine::make_sampler(sites, opt);
  std::vector<FaultSpec> faults;
  for (int i = 0; i < opt.num_fault_samples; ++i) {
    faults.push_back(sampler(derive_seed(opt.seed, static_cast<uint64_t>(i))));
  }
  const int vectors = opt.vectors();
  const int W = (vectors + 63) / 64;
  // Valid vectors of word w: a partial final word's padding never counts.
  auto valid = [&](int w) {
    return w + 1 < W || vectors % 64 == 0 ? ~0ULL
                                          : (1ULL << (vectors % 64)) - 1;
  };
  const int P = net.num_pos();
  const int num_batches =
      (opt.num_fault_samples + opt.faults_per_batch - 1) / opt.faults_per_batch;
  auto batch = [&](int b) {
    const auto first = faults.begin() + b * opt.faults_per_batch;
    const auto last = b + 1 == num_batches ? faults.end()
                                           : first + opt.faults_per_batch;
    return std::make_pair(
        PatternSet::random(net.num_pis(), W,
                           derive_seed(opt.seed ^ FaultSimEngine::kPatternStream,
                                       static_cast<uint64_t>(b))),
        std::vector<FaultSpec>(first, last));
  };

  TwoPassReference ref;
  std::vector<int64_t> count01(P, 0), count10(P, 0);
  int64_t any_error = 0;
  for (int b = 0; b < num_batches; ++b) {
    const auto [patterns, specs] = batch(b);
    const Plane golden = reference_plane(net, patterns, nullptr, nullptr);
    for (const FaultSpec& spec : specs) {
      const Plane faulty = reference_plane(net, patterns, &spec, &golden);
      for (int w = 0; w < W; ++w) {
        uint64_t any = 0, multi = 0, first = 0, later = 0;
        for (int o = 0; o < P; ++o) {
          const NodeId drv = net.po(o).driver;
          const uint64_t g = golden[drv][w];
          const uint64_t f = faulty[drv][w];
          const uint64_t d = (g ^ f) & valid(w);
          count01[o] += std::popcount(d & f);
          count10[o] += std::popcount(d & g);
          multi |= any & d;
          any |= d;
          (o < kPosPerKeyWord ? first : later) |= d;
        }
        any_error += std::popcount(any);
        ref.multi_po_vectors += std::popcount(multi);
        ref.spanning_key_words += std::popcount(first & later);
      }
    }
  }
  const int64_t runs = static_cast<int64_t>(opt.num_fault_samples) * vectors;
  ref.report.outputs.resize(P);
  for (int o = 0; o < P; ++o) {
    ref.report.outputs[o].rate_0_to_1 =
        static_cast<double>(count01[o]) / static_cast<double>(runs);
    ref.report.outputs[o].rate_1_to_0 =
        static_cast<double>(count10[o]) / static_cast<double>(runs);
  }
  const std::vector<ApproxDirection> dirs = choose_directions(ref.report);

  int64_t dominant = 0;  // shared by the visitor: run it on one thread
  const ScopedThreadCount serial(1);
  FaultSimEngine engine(net);
  for (int b = 0; b < num_batches; ++b) {
    const auto [patterns, specs] = batch(b);
    engine.run_batch(patterns, specs,
                     [&](int, const FaultSpec&, const FaultView& v) {
                       std::vector<uint64_t> row(W, 0);
                       for (int o = 0; o < P; ++o) {
                         const uint64_t* g = v.golden(net.po(o).driver);
                         const uint64_t* f = v.faulty(net.po(o).driver);
                         for (int w = 0; w < W; ++w) {
                           row[w] |= dirs[o] == ApproxDirection::kZeroApprox
                                         ? ~g[w] & f[w]
                                         : g[w] & ~f[w];
                         }
                       }
                       for (int w = 0; w < W; ++w) {
                         dominant += std::popcount(row[w] & valid(w));
                       }
                     });
  }
  ref.report.runs = runs;
  ref.report.any_output_error_rate =
      static_cast<double>(any_error) / static_cast<double>(runs);
  ref.report.max_ced_coverage =
      any_error > 0
          ? static_cast<double>(dominant) / static_cast<double>(any_error)
          : 0.0;
  return ref;
}

TEST(ReliabilityReferenceTest, SinglePassMatchesTwoPassReference) {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_supported(t)) tiers.push_back(t);
  }
  const simd::Tier active = simd::active_tier();
  const std::vector<std::pair<std::string, Network>> nets = {
      {"dec38", make_benchmark("dec38")},
      {"rca8", make_benchmark("rca8")},
      {"wide", wide_network()}};
  for (const auto& [name, net] : nets) {
    // Vectors whose signature names two or more erring POs, and for the
    // wide network, ones whose erring POs fall in more than one key word.
    int64_t multi_po_vectors = 0, spanning_key_words = 0;
    // The last input gives each fault 100 vectors: a tail-masked final
    // word.
    for (const auto& [model, vectors] :
         {std::pair{FaultModel::kSingleStuckAt, 0},
          std::pair{FaultModel::kMultiStuckAt, 0},
          std::pair{FaultModel::kTransientBurst, 0},
          std::pair{FaultModel::kSingleStuckAt, 100}}) {
      SCOPED_TRACE(name + " " + fault_model_name(model) + " vectors " +
                   std::to_string(vectors));
      ReliabilityOptions opt;
      opt.num_fault_samples = 150;
      opt.words_per_fault = 2;
      opt.vectors_per_fault = vectors;
      opt.faults_per_batch = 16;  // ten batches, the last one partial
      opt.model = model;
      opt.burst_vectors = 40;     // windows straddle the word boundary
      const TwoPassReference ref = two_pass_reference(net, opt);
      multi_po_vectors += ref.multi_po_vectors;
      spanning_key_words += ref.spanning_key_words;
      for (simd::Tier tier : tiers) {
        simd::set_tier(tier);
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE(std::string(simd::tier_name(tier)) + " threads " +
                       std::to_string(threads));
          const ScopedThreadCount limit(threads);
          const ReliabilityReport r = analyze_reliability(net, opt);
          EXPECT_EQ(r.runs, ref.report.runs);
          EXPECT_EQ(r.any_output_error_rate, ref.report.any_output_error_rate);
          EXPECT_EQ(r.max_ced_coverage, ref.report.max_ced_coverage);
          ASSERT_EQ(r.outputs.size(), ref.report.outputs.size());
          for (size_t o = 0; o < r.outputs.size(); ++o) {
            EXPECT_EQ(r.outputs[o].rate_0_to_1,
                      ref.report.outputs[o].rate_0_to_1) << "PO " << o;
            EXPECT_EQ(r.outputs[o].rate_1_to_0,
                      ref.report.outputs[o].rate_1_to_0) << "PO " << o;
          }
        }
      }
    }
    EXPECT_GT(multi_po_vectors, 0) << name;
    if (net.num_pos() > kPosPerKeyWord) {
      EXPECT_GT(spanning_key_words, 0) << name;
    }
  }
  simd::set_tier(active);
}

}  // namespace
}  // namespace apx
