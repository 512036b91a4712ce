#include "network/bench_format.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "sat/encode.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

const char* kC17Bench = R"(
# c17 in ISCAS89-style .bench
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

TEST(BenchFormatTest, ParsesC17AndMatchesEmbedded) {
  Network parsed = read_bench_string(kC17Bench);
  Network embedded = make_c17();
  ASSERT_EQ(parsed.num_pis(), embedded.num_pis());
  for (int o = 0; o < 2; ++o) {
    EXPECT_EQ(check_po_equivalence(parsed, o, embedded, o),
              CheckResult::kHolds);
  }
}

TEST(BenchFormatTest, GateVocabulary) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(o1)
OUTPUT(o2)
OUTPUT(o3)
OUTPUT(o4)
o1 = XOR(a, b)
o2 = XNOR(a, b)
o3 = NOR(a, b)
o4 = BUFF(a)
)";
  Network net = read_bench_string(text);
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(2));
  auto bits = [&](int po) { return sim.value(net.po(po).driver)[0] & 0xF; };
  EXPECT_EQ(bits(0), 0b0110u);  // XOR
  EXPECT_EQ(bits(1), 0b1001u);  // XNOR
  EXPECT_EQ(bits(2), 0b0001u);  // NOR
  EXPECT_EQ(bits(3), 0b1010u);  // BUFF(a)
}

TEST(BenchFormatTest, OutOfOrderDefinitions) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
y = NOT(t)
t = BUF(a)
)";
  Network net = read_bench_string(text);
  net.check();
  EXPECT_EQ(net.num_logic_nodes(), 2);
}

TEST(BenchFormatTest, RoundTripArbitraryNetwork) {
  Network net = make_benchmark("cmp4");
  std::string text = write_bench_string(net);
  Network back = read_bench_string(text);
  for (int o = 0; o < net.num_pos(); ++o) {
    EXPECT_EQ(check_po_equivalence(net, o, back, o), CheckResult::kHolds)
        << "po " << o;
  }
}

// Schema check on the committed BENCH_pipeline.json perf artifact (written
// by bench/bench_pipeline.cpp, fields documented in EXPERIMENTS.md). The
// repo carries no JSON dependency, so the check is structural: every
// required top-level and per-row key must appear, the braces/brackets of
// the hand-rolled fprintf writer must balance, and the committed artifact
// must record a bit-identical 1-vs-N run. The speedup gate's verdict is
// recorded, not required: the artifact is the host's truth either way.
TEST(BenchJsonTest, PipelineArtifactSchema) {
  const std::string path = std::string(APX_REPO_ROOT) + "/BENCH_pipeline.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed artifact: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const char* top_level[] = {
      "\"suite\"",           "\"fault_samples\"",
      "\"hardware_concurrency\"", "\"threads_parallel\"",
      "\"serial_seconds\"",  "\"parallel_seconds\"",
      "\"speedup\"",         "\"speedup_gate\"",
      "\"gate_enforced\"",   "\"rows_bit_identical\"",
      "\"rows\"",
      // Host metadata: a `gate_enforced: false` artifact from a small
      // runner must say so in a machine-checkable way.
      "\"host_cores\"",      "\"thread_policy\"",
      "\"simd_width_bits\"", "\"simd_policy\"",
  };
  for (const char* key : top_level) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  const char* per_row[] = {
      "\"circuit\"",      "\"gates\"",        "\"checkgen_gates\"",
      "\"approx_pct\"",   "\"coverage_pct\"", "\"area_overhead_pct\"",
      "\"erroneous\"",    "\"detected\"",
  };
  for (const char* key : per_row) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }

  EXPECT_NE(text.find("\"rows_bit_identical\": true"), std::string::npos)
      << "committed artifact must record a bit-identical 1-vs-N run";

  int braces = 0, brackets = 0;
  for (char c : text) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// Same structural schema check for the committed BENCH_faultsim.json
// artifact (written by bench/bench_faultsim.cpp): the per-SIMD-width rows
// and their value-plane identity claim must be present and recorded as
// holding.
TEST(BenchJsonTest, FaultsimArtifactSchema) {
  const std::string path = std::string(APX_REPO_ROOT) + "/BENCH_faultsim.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed artifact: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const char* top_level[] = {
      "\"circuit\"",
      "\"ced_nodes\"",
      "\"functional_gates\"",
      "\"simd\"",
      "\"sweep_words\"",
      "\"sweep_reps\"",
      "\"simd_speedup\"",
      "\"simd_speedup_gate\"",
      "\"simd_gate_enforced\"",
      "\"widths_bit_identical\"",
      "\"host_cores\"",
      "\"thread_policy\"",
      "\"simd_width_bits\"",
      "\"simd_policy\"",
  };
  for (const char* key : top_level) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  const char* per_width[] = {
      "\"tier\"",
      "\"width_bits\"",
      "\"substrate_seconds\"",
      "\"substrate_patterns_per_sec\"",
      "\"plane_checksum\"",
  };
  for (const char* key : per_width) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  // The scalar row always exists (every host runs the portable kernel).
  EXPECT_NE(text.find("\"tier\": \"scalar\""), std::string::npos);

  EXPECT_NE(text.find("\"widths_bit_identical\": true"), std::string::npos)
      << "committed artifact must record bit-identical SIMD tiers";
  EXPECT_EQ(text.find("\"widths_bit_identical\": false"), std::string::npos);

  int braces = 0, brackets = 0;
  for (char c : text) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// Same structural schema check for the committed BENCH_aig.json artifact
// (written by bench/bench_aig.cpp): the AIG quick-synthesis scale gates
// must be recorded as passing in the committed snapshot.
TEST(BenchJsonTest, AigArtifactSchema) {
  const std::string path = std::string(APX_REPO_ROOT) + "/BENCH_aig.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed artifact: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const char* top_level[] = {
      "\"blif\"",
      "\"circuits\"",
      "\"suite_round_trip\"",
      "\"round_trip_equivalent\"",
      "\"aes_rp_and_reduction_pct\"",
      "\"reduction_gate_pct\"",
      "\"e2e\"",
      "\"e2e_budget_seconds\"",
      "\"scale_gate_gates\"",
      "\"gates_pass\"",
      "\"host_cores\"",
      "\"thread_policy\"",
      "\"simd_width_bits\"",
      "\"simd_policy\"",
  };
  for (const char* key : top_level) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  const char* per_row[] = {
      "\"name\"",
      "\"logic_nodes\"",
      "\"to_aig_seconds\"",
      "\"ands_before\"",
      "\"rewrite_seconds\"",
      "\"ands_after\"",
      "\"and_reduction_pct\"",
      "\"rewrite_passes\"",
      "\"cuts_enumerated\"",
      "\"cuts_per_sec\"",
      "\"to_network_seconds\"",
      "\"round_trip_seconds\"",
      "\"sim_equivalent\"",
  };
  for (const char* key : per_row) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  const char* blif_keys[] = {
      "\"lines\"",
      "\"parse_seconds\"",
      "\"lines_per_sec\"",
      "\"reverse_lines\"",
      "\"reverse_parse_seconds\"",
      "\"round_trip_sim_equivalent\": true",
  };
  for (const char* key : blif_keys) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  // Both large benchmarks and the e2e circuit must be present.
  EXPECT_NE(text.find("\"name\": \"mult32\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"aes_rp\""), std::string::npos);
  EXPECT_NE(text.find("\"mapped_gates\""), std::string::npos);
  EXPECT_NE(text.find("\"pipeline_seconds\""), std::string::npos);

  // The committed snapshot must show every scale gate green.
  EXPECT_NE(text.find("\"sat_miters_unsat\": true"), std::string::npos);
  EXPECT_NE(text.find("\"round_trip_equivalent\": true"), std::string::npos);
  EXPECT_NE(text.find("\"gates_pass\": true"), std::string::npos);

  int braces = 0, brackets = 0;
  for (char c : text) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(BenchFormatTest, RejectsSequentialAndMalformed) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny NOT a\n"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("OUTPUT(y)\ny = NOT(z)\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace apx
