// cedbench — the end-to-end benchmark of the CED flow (paper Sec. 3-4):
// synthesize an approximate check-symbol generator, assemble the CED
// design, and measure its coverage by fault injection and its area and
// power overheads. Two workloads stress different layers:
//
//   flow_cold      one run_ced_pipeline per Table 2 circuit (cmb, cordic,
//                  term1, x1, i2) and per mult32, at threshold 0.12, 1500
//                  reliability and coverage samples, 1 worker; the
//                  process-wide OrderCache is cleared at the start of every
//                  pass (the one-shot `apxced ced` use). BDD sifting
//                  dominates the suite; mult32 is the only circuit that
//                  takes the AIG quick-synthesis path and the SAT fallback.
//   campaign_6p4m  CED designs of the suite are synthesized at set-up; a
//                  pass runs analyze_reliability and evaluate_ced_coverage
//                  per circuit at 6.4M runs each (25000 samples x 4 words
//                  x 64 vectors), 2 workers (fault simulation + task pool).
//
// Circuits at the AIG quick-synthesis scale (mult32) run with the
// fail-fast oracle budgets of the AIG-scale benches (BDD 1<<15 nodes,
// 1000 SAT conflicts per query).
//
// A run repeats identical passes for --seconds (at least kMinPasses after
// a warm-up pass that is not kept). wall_q1_s is the lower quartile of the
// pass times: neighbours on the shared host slow passes by up to 2x for
// tens of seconds at a time, which moves a run's median pass but rarely
// its fastest quarter. Set-up (input construction, plus design synthesis
// for the campaign) is repeated and its median reported as setup_s.
// Outputs are checked outside the timed passes: every pass must reproduce
// the same per-operation digest, and each CED design is certified by
// random-vector simulation (no false alarm, functional outputs intact,
// every output's implication holds) and, below the AIG scale, by a fresh
// SAT miter per output. An operation (one flow, or one campaign on one
// circuit) that throws or fails a check is counted in `failed`.
//
// --trace 1 is a separate run: untraced passes alternate with traced
// passes that call the pipeline stages one by one inside spans recorded
// by this file, with the library's counters enabled. It reports per-stage
// self time, the library counters, flow.unaccounted_pct and
// trace.overhead_pct; the staged results must be bit-identical to
// run_ced_pipeline's.
//
// Usage:
//   cedbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-file PATH] [--smoke] [--break-checkgen]
// --smoke shrinks sample counts to one pass (self-test); --break-checkgen
// inverts one output of the first design's check-symbol generator before
// certification, which must then be counted as failed. The last line of
// stdout is the result JSON: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "certify.hpp"
#include "core/pipeline.hpp"
#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "mapping/optimize.hpp"
#include "network/ordering.hpp"
#include "sim/kernels.hpp"
#include "sim/rng.hpp"
#include "span_log.hpp"

#ifndef CEDBENCH_BUILD_TYPE
#define CEDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using cedbench::SpanLog;

// ------------------------------------------------------------ workloads

enum class Kind { kFlow, kCampaign };

struct Workload {
  const char* name;
  Kind kind;
  std::vector<std::string> circuits;
  /// Significance threshold of every flow (kCampaign: of the design
  /// synthesis at set-up).
  double threshold;
  int workers;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"flow_cold",
       Kind::kFlow,
       {"cmb", "cordic", "term1", "x1", "i2", "mult32"},
       0.12,
       1},
      {"campaign_6p4m",
       Kind::kCampaign,
       {"cmb", "cordic", "term1", "x1", "i2"},
       0.12,
       2},
  };
  return w;
}

constexpr int kMinPasses = 3;
/// Library default of the certification vectors' sampling stream.
constexpr uint64_t kCheckSeed = 0xC3D5EED;

struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool break_checkgen = false;
  std::string trace_file;

  int flow_samples() const { return smoke ? 200 : 1500; }
  int campaign_samples() const { return smoke ? 500 : 25000; }
  int min_passes() const { return smoke ? 1 : kMinPasses; }
  int setup_reps() const {
    if (smoke) return 1;
    return workload->kind == Kind::kCampaign ? 3 : 21;
  }
};

/// Sampling seed of one stream: seed 0 keeps the library default, any
/// other workload seed derives a fresh stream from it.
uint64_t stream_seed(uint64_t seed, uint64_t library_default) {
  return seed == 0 ? library_default : apx::derive_seed(library_default, seed);
}

/// A circuit at the AIG quick-synthesis scale: it gets the fail-fast
/// oracle budgets, and certification skips the per-output SAT miter (at
/// 2000 conflicts per output the miter left 58 of mult32's 64 outputs
/// undecided after 43 s) and relies on simulation.
bool aig_scale(const apx::Network& net) {
  return net.num_logic_nodes() >= apx::kAigQuickSynthesisThreshold;
}

apx::PipelineOptions flow_options(const Config& c, const apx::Network& net) {
  const Workload& w = *c.workload;
  apx::PipelineOptions opt;
  opt.approx.significance_threshold = w.threshold;
  opt.approx.num_threads = w.workers;
  opt.approx.seed = stream_seed(c.seed, apx::ApproxOptions{}.seed);
  if (aig_scale(net)) {
    opt.approx.bdd_budget = 1u << 15;
    opt.approx.sat_conflict_budget = 1000;
  }
  opt.reliability.num_fault_samples = c.flow_samples();
  opt.reliability.num_threads = w.workers;
  opt.reliability.seed = stream_seed(c.seed, apx::ReliabilityOptions{}.seed);
  opt.coverage.num_fault_samples = c.flow_samples();
  opt.coverage.num_threads = w.workers;
  opt.coverage.seed = stream_seed(c.seed, apx::CoverageOptions{}.seed);
  return opt;
}

apx::ReliabilityOptions campaign_reliability(const Config& c) {
  apx::ReliabilityOptions opt;
  opt.num_fault_samples = c.campaign_samples();
  opt.num_threads = c.workload->workers;
  opt.seed = stream_seed(c.seed, apx::ReliabilityOptions{}.seed);
  return opt;
}

apx::CoverageOptions campaign_coverage(const Config& c) {
  apx::CoverageOptions opt;
  opt.num_fault_samples = c.campaign_samples();
  opt.num_threads = c.workload->workers;
  opt.seed = stream_seed(c.seed, apx::CoverageOptions{}.seed);
  return opt;
}

// ------------------------------------------------------------ utilities

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The q-quantile of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over 64-bit words; doubles enter by bit pattern, so a digest
/// match means bit-identical outputs.
class Digest {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

// ------------------------------------------------------------ operations

/// What one operation (a flow, or a campaign on one circuit) produced.
struct Outcome {
  std::string label;
  bool threw = false;
  std::string error;
  bool consistent = true;  // campaign counts are internally consistent
  uint64_t digest = 0;
  int gates = 0;
  int checkgen_gates = 0;
  int repairs = 0;
  int correct_after_stage1 = 0;
  int64_t reliability_runs = 0;
  int64_t coverage_runs = 0;
  int64_t erroneous = 0;
  int64_t detected = 0;
  double coverage_pct = 0.0;
  double area_pct = 0.0;
  double power_pct = 0.0;
  double approx_pct = 0.0;
};

void add_reliability(Digest& d, const apx::ReliabilityReport& r) {
  d.add(static_cast<uint64_t>(r.runs));
  d.add(r.any_output_error_rate);
  d.add(r.max_ced_coverage);
  for (const apx::OutputErrorProfile& p : r.outputs) {
    d.add(p.rate_0_to_1);
    d.add(p.rate_1_to_0);
  }
}

void add_coverage(Digest& d, const apx::CoverageResult& c) {
  d.add(static_cast<uint64_t>(c.runs));
  d.add(static_cast<uint64_t>(c.erroneous));
  d.add(static_cast<uint64_t>(c.detected));
}

Outcome summarize_flow(std::string label, const apx::PipelineResult& r) {
  Outcome o;
  o.label = std::move(label);
  Digest d;
  d.add(apx::network_content_hash(r.mapped_original));
  d.add(apx::network_content_hash(r.mapped_checkgen));
  d.add(apx::network_content_hash(r.ced.design));
  for (apx::ApproxDirection dir : r.directions) d.add(static_cast<uint64_t>(dir));
  for (const apx::PoApproxStats& s : r.synthesis.po_stats) {
    d.add(static_cast<uint64_t>(s.verified));
    d.add(s.approximation_pct);
    d.add(s.sim_violation_rate);
  }
  d.add(static_cast<uint64_t>(r.synthesis.repairs));
  d.add(static_cast<uint64_t>(r.synthesis.correct_after_stage1));
  add_reliability(d, r.reliability);
  add_coverage(d, r.coverage);
  d.add(static_cast<uint64_t>(r.overheads.checkgen_area));
  d.add(r.overheads.functional_activity);
  d.add(r.overheads.checkgen_activity);
  d.add(static_cast<uint64_t>(r.original_delay));
  d.add(static_cast<uint64_t>(r.checkgen_delay));
  o.digest = d.value();

  o.gates = r.mapped_original.num_logic_nodes();
  o.checkgen_gates = r.mapped_checkgen.num_logic_nodes();
  o.repairs = r.synthesis.repairs;
  o.correct_after_stage1 = r.synthesis.correct_after_stage1;
  o.reliability_runs = r.reliability.runs;
  o.coverage_runs = r.coverage.runs;
  o.erroneous = r.coverage.erroneous;
  o.detected = r.coverage.detected;
  o.coverage_pct = 100.0 * r.coverage.coverage();
  o.area_pct = r.overheads.area_overhead_pct();
  o.power_pct = r.overheads.power_overhead_pct();
  o.approx_pct = 100.0 * r.mean_approximation_pct();
  return o;
}

/// run_ced_pipeline, or (with a span log) the same stages called one by
/// one inside spans, in run_ced_pipeline's order and with its arguments.
apx::PipelineResult run_flow(const apx::Network& net,
                             const apx::PipelineOptions& opt, SpanLog* log) {
  if (log == nullptr) return apx::run_ced_pipeline(net, opt);
  SpanLog::Scope flow(*log, "flow");
  apx::PipelineResult r;
  apx::Network optimized;
  {
    SpanLog::Scope s(*log, "mapping.quick_synthesis");
    optimized = apx::quick_synthesis(net);
  }
  {
    SpanLog::Scope s(*log, "mapping.technology_map");
    r.mapped_original = apx::technology_map(optimized, opt.map_options);
  }
  {
    SpanLog::Scope s(*log, "reliability.analyze");
    r.reliability = apx::analyze_reliability(r.mapped_original, opt.reliability);
    r.directions = apx::choose_directions(r.reliability);
  }
  {
    SpanLog::Scope s(*log, "synthesis.synthesize");
    r.synthesis =
        apx::synthesize_approximation(optimized, r.directions, opt.approx);
  }
  {
    SpanLog::Scope s(*log, "mapping.technology_map");
    r.mapped_checkgen =
        apx::technology_map(r.synthesis.approx, opt.map_options);
  }
  {
    SpanLog::Scope s(*log, "ced.assemble");
    r.ced = apx::build_ced_design(r.mapped_original, r.mapped_checkgen,
                                  r.directions);
  }
  {
    SpanLog::Scope s(*log, "ced.coverage");
    r.coverage = apx::evaluate_ced_coverage(r.ced, opt.coverage);
  }
  {
    SpanLog::Scope s(*log, "ced.overheads");
    r.overheads = apx::measure_overheads(r.ced);
    r.original_delay = apx::mapped_delay(r.mapped_original);
    r.checkgen_delay = apx::mapped_delay(r.mapped_checkgen);
  }
  return r;
}

// ------------------------------------------------------------ passes

struct Inputs {
  std::vector<apx::Network> nets;
  /// kCampaign: the synthesized CED flow per circuit.
  std::vector<apx::PipelineResult> designs;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> op_wall_s;
  bool traced = false;
  std::vector<Outcome> ops;
  // Traced passes only.
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> library_phase_s;
  std::map<std::string, double> self_s;
};

/// What one operation of a pass returned; summarized after the pass's
/// clock stops, so digests and checks stay outside the timed region.
struct RawOp {
  std::string error;  // non-empty when the operation threw
  double wall_s = 0.0;
  apx::PipelineResult flow;
  apx::ReliabilityReport reliability;  // kCampaign
  apx::CoverageResult coverage;        // kCampaign
};

/// One pass of a flow workload.
std::vector<RawOp> flow_pass(const Config& c, const Inputs& in, SpanLog* log) {
  std::optional<SpanLog::Scope> pass_span;
  if (log != nullptr) pass_span.emplace(*log, "pass");
  apx::OrderCache::instance().clear();
  std::vector<RawOp> ops(in.nets.size());
  for (size_t i = 0; i < in.nets.size(); ++i) {
    const double t0 = now_s();
    try {
      ops[i].flow = run_flow(in.nets[i], flow_options(c, in.nets[i]), log);
    } catch (const std::exception& e) {
      ops[i].error = e.what();
    }
    ops[i].wall_s = now_s() - t0;
  }
  return ops;
}

/// One pass of the campaign workload over the designs built at set-up.
std::vector<RawOp> campaign_pass(const Config& c, const Inputs& in,
                                 SpanLog* log) {
  std::optional<SpanLog::Scope> pass_span;
  if (log != nullptr) pass_span.emplace(*log, "pass");
  const apx::ReliabilityOptions ropt = campaign_reliability(c);
  const apx::CoverageOptions copt = campaign_coverage(c);
  std::vector<RawOp> ops(in.designs.size());
  for (size_t i = 0; i < in.designs.size(); ++i) {
    const double t0 = now_s();
    try {
      {
        std::optional<SpanLog::Scope> s;
        if (log != nullptr) s.emplace(*log, "reliability.analyze");
        ops[i].reliability =
            apx::analyze_reliability(in.designs[i].mapped_original, ropt);
      }
      std::optional<SpanLog::Scope> s;
      if (log != nullptr) s.emplace(*log, "ced.coverage");
      ops[i].coverage = apx::evaluate_ced_coverage(in.designs[i].ced, copt);
    } catch (const std::exception& e) {
      ops[i].error = e.what();
    }
    ops[i].wall_s = now_s() - t0;
  }
  return ops;
}

Outcome summarize_campaign(const Config& c, std::string label,
                           const apx::PipelineResult& design,
                           const apx::ReliabilityReport& rr,
                           const apx::CoverageResult& cr) {
  Outcome o;
  o.label = std::move(label);
  Digest d;
  add_reliability(d, rr);
  add_coverage(d, cr);
  o.digest = d.value();
  const int64_t expected_runs = static_cast<int64_t>(c.campaign_samples()) *
                                campaign_coverage(c).words_per_fault * 64;
  o.consistent = rr.runs == expected_runs && cr.runs == expected_runs &&
                 cr.erroneous >= 0 && cr.detected >= 0 &&
                 cr.detected <= cr.erroneous && cr.erroneous <= cr.runs &&
                 rr.max_ced_coverage >= 0.0 && rr.max_ced_coverage <= 1.0;
  o.gates = design.mapped_original.num_logic_nodes();
  o.checkgen_gates = design.mapped_checkgen.num_logic_nodes();
  o.reliability_runs = rr.runs;
  o.coverage_runs = cr.runs;
  o.erroneous = cr.erroneous;
  o.detected = cr.detected;
  o.coverage_pct = 100.0 * cr.coverage();
  o.area_pct = design.overheads.area_overhead_pct();
  o.power_pct = design.overheads.power_overhead_pct();
  o.approx_pct = 100.0 * design.mean_approximation_pct();
  return o;
}

/// Counter names read from the library after each traced pass; all are
/// exact (deterministic at the workload's worker count).
const char* const kLibraryCounters[] = {
    "bdd.reorder_runs",        "bdd.reorder_skipped_budget",
    "bdd.peak_nodes",          "bdd.gc_runs",
    "bdd.order_cache_hits",    "bdd.order_cache_misses",
    "oracle.bdd_queries",      "oracle.sat_queries",
    "oracle.full_rebuilds",    "oracle.incremental_refreshes",
    "oracle.structural_hits",  "oracle.sat_nodes_reencoded",
    "sat.solves",              "sat.conflicts",
    "sat.decisions",           "aig.quick_synthesis_calls",
    "aig.rewrite_ands_saved",  "faultsim.fault_sims",
    "faultsim.batches",        "faultsim.pattern_words",
};

/// Library spans whose total time is reported next to the stage spans.
const char* const kLibraryPhases[] = {"bdd.reorder", "synth.pct_sweep",
                                      "oracle.sat_fallback"};

/// Runs and times one pass; a traced pass also records spans into `log`
/// and reads the library counters. `keep` (untraced passes) receives the
/// flow results, default-constructed for a flow that threw.
Pass run_pass(const Config& c, const Inputs& in, SpanLog* log,
              std::vector<apx::PipelineResult>* keep) {
  Pass pass;
  pass.traced = log != nullptr;
  if (pass.traced) {
    apx::trace::reset();
    apx::trace::set_trace_enabled(true);
  }
  const bool flows = c.workload->kind == Kind::kFlow;
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  std::vector<RawOp> raw = flows ? flow_pass(c, in, log) : campaign_pass(c, in, log);
  pass.wall_s = now_s() - t0;
  pass.cpu_s = cpu_s() - cpu0;
  if (pass.traced) {
    apx::trace::set_trace_enabled(false);
    std::map<std::string, int64_t> all;
    for (const apx::trace::CounterStat& s : apx::trace::counter_summary()) {
      all[s.name] = s.value;
    }
    for (const char* name : kLibraryCounters) pass.counters[name] = all[name];
    std::map<std::string, double> phases;
    for (const apx::trace::PhaseStat& p : apx::trace::phase_summary()) {
      phases[p.name] = p.total_ms / 1000.0;
    }
    for (const char* name : kLibraryPhases) {
      pass.library_phase_s[name] = phases[name];
    }
    apx::trace::reset();
  }

  for (size_t i = 0; i < raw.size(); ++i) {
    pass.op_wall_s.push_back(raw[i].wall_s);
    const std::string& label = c.workload->circuits[i];
    if (!raw[i].error.empty()) {
      Outcome o;
      o.label = label;
      o.threw = true;
      o.error = raw[i].error;
      pass.ops.push_back(std::move(o));
    } else if (flows) {
      pass.ops.push_back(summarize_flow(label, raw[i].flow));
    } else {
      pass.ops.push_back(summarize_campaign(c, label, in.designs[i],
                                            raw[i].reliability,
                                            raw[i].coverage));
    }
    if (keep != nullptr && flows) keep->push_back(std::move(raw[i].flow));
  }
  return pass;
}

// ------------------------------------------------------------ set-up

Inputs build_inputs(const Config& c) {
  Inputs in;
  for (const std::string& name : c.workload->circuits) {
    in.nets.push_back(apx::make_benchmark(name));
  }
  if (c.workload->kind == Kind::kCampaign) {
    apx::OrderCache::instance().clear();
    for (const apx::Network& net : in.nets) {
      in.designs.push_back(apx::run_ced_pipeline(net, flow_options(c, net)));
    }
  }
  return in;
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "cedbench: %s\nusage: cedbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-file PATH] [--smoke] "
               "[--break-checkgen]\nworkloads:",
               msg);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config c;
  std::string name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      name = value();
    } else if (arg == "--seed") {
      c.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      c.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      c.trace = value() == "1";
    } else if (arg == "--trace-file") {
      c.trace_file = value();
    } else if (arg == "--smoke") {
      c.smoke = true;
    } else if (arg == "--break-checkgen") {
      c.break_checkgen = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  for (const Workload& w : workloads()) {
    if (name == w.name) c.workload = &w;
  }
  if (c.workload == nullptr) usage(("unknown workload '" + name + "'").c_str());
  return c;
}

// ------------------------------------------------------------ run

/// Builds the inputs setup_reps() times; returns each repetition's time.
std::vector<double> run_setup(const Config& c, Inputs& in) {
  std::vector<double> times;
  for (int rep = 0; rep < c.setup_reps(); ++rep) {
    in = Inputs{};
    const double t0 = now_s();
    in = build_inputs(c);
    times.push_back(now_s() - t0);
  }
  return times;
}

/// Repeats passes until they have run for --seconds in total. The first
/// pass (outside --smoke) warms up and is not kept. In a traced run a
/// traced pass follows every untraced one, so their medians sample the
/// same stretch of time. `kept` ends up holding the results of the last
/// untraced pass.
std::vector<Pass> run_passes(const Config& c, const Inputs& in, SpanLog& log,
                             std::vector<apx::PipelineResult>& kept) {
  std::vector<Pass> passes;
  double measured_s = c.smoke ? 0.0 : run_pass(c, in, nullptr, nullptr).wall_s;
  int untraced = 0;
  while (untraced < c.min_passes() || measured_s < c.seconds) {
    kept.clear();
    passes.push_back(run_pass(c, in, nullptr, &kept));
    measured_s += passes.back().wall_s;
    ++untraced;
    if (c.trace) {
      // The span log numbers passes by their index in `passes`.
      const int index = static_cast<int>(passes.size());
      log.set_pass(index);
      passes.push_back(run_pass(c, in, &log, nullptr));
      passes.back().self_s = log.self_seconds(index);
      measured_s += passes.back().wall_s;
    }
  }
  return passes;
}

/// Certifies every operation of the reference pass: the flow results in
/// `kept`, or the campaign's set-up designs. With --break-checkgen the
/// first design's check-symbol generator has one output inverted.
std::vector<cedbench::Verdict> certify_all(
    const Config& c, const Inputs& in, const Pass& reference,
    const std::vector<apx::PipelineResult>& kept) {
  const uint64_t check_seed = stream_seed(c.seed, kCheckSeed);
  std::vector<cedbench::Verdict> verdicts(reference.ops.size());
  for (size_t k = 0; k < verdicts.size(); ++k) {
    if (reference.ops[k].threw) continue;
    const apx::PipelineResult& r =
        c.workload->kind == Kind::kFlow ? kept[k] : in.designs[k];
    apx::Network broken;
    apx::CedDesign broken_ced;
    const apx::Network* checkgen = &r.mapped_checkgen;
    const apx::CedDesign* ced = &r.ced;
    if (c.break_checkgen && k == 0) {
      broken = cedbench::invert_po(r.mapped_checkgen, 0);
      broken_ced = apx::build_ced_design(r.mapped_original, broken, r.directions);
      checkgen = &broken;
      ced = &broken_ced;
    }
    verdicts[k] = cedbench::certify_design(in.nets[k], *checkgen, *ced,
                                           r.directions, !aig_scale(in.nets[k]),
                                           check_seed);
  }
  return verdicts;
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> first_failures;
};

/// Every operation of every pass must reproduce the reference digest of
/// an output that passed certification (the staged traced flows included:
/// they must be bit-identical to run_ced_pipeline's), and traced passes
/// must repeat the library counters exactly.
Tally count_failures(const std::vector<Pass>& passes, const Pass& reference,
                     const std::vector<cedbench::Verdict>& verdicts) {
  Tally t;
  const Pass* first_traced = nullptr;
  for (size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    bool counters_repeat = true;
    if (pass.traced) {
      if (first_traced == nullptr) first_traced = &pass;
      counters_repeat = pass.counters == first_traced->counters;
    }
    for (size_t k = 0; k < pass.ops.size(); ++k) {
      const Outcome& o = pass.ops[k];
      ++t.attempted;
      std::string why;
      if (o.threw) {
        why = "threw: " + o.error;
      } else if (k >= reference.ops.size() ||
                 o.digest != reference.ops[k].digest) {
        why = "output differs from the reference pass";
      } else if (!o.consistent) {
        why = "inconsistent campaign counts";
      } else if (!verdicts[k].ok) {
        why = "certification failed: " + verdicts[k].reason;
      } else if (!counters_repeat) {
        why = "library counters did not repeat";
      }
      if (why.empty()) continue;
      ++t.failed;
      if (t.first_failures.size() < 8) {
        t.first_failures.push_back("pass " + std::to_string(p) + " " +
                                   o.label + ": " + why);
      }
    }
  }
  return t;
}

/// Per-operation table, pass and set-up times, failures and host metadata
/// (everything before the result line).
void print_report(const Config& c, const std::vector<Pass>& passes,
                  const Pass& reference,
                  const std::vector<double>& setup_times, const Tally& t) {
  const Workload& w = *c.workload;
  std::printf("cedbench %s seed=%llu %s: %zu passes, setup median %.3fs\n",
              w.name, static_cast<unsigned long long>(c.seed),
              c.trace ? "traced" : "untraced", passes.size(),
              median(setup_times));
  std::printf("%-14s %7s %9s %10s %10s %8s %7s  %s\n", "operation", "gates",
              "checkgen", "erroneous", "detected", "approx%", "cov%",
              "digest");
  for (const Outcome& o : reference.ops) {
    std::printf("%-14s %7d %9d %10lld %10lld %8.3f %7.3f  %016llx\n",
                o.label.c_str(), o.gates, o.checkgen_gates,
                static_cast<long long>(o.erroneous),
                static_cast<long long>(o.detected), o.approx_pct,
                o.coverage_pct, static_cast<unsigned long long>(o.digest));
  }
  std::vector<double> walls;
  for (const Pass& p : passes) {
    if (!p.traced) walls.push_back(p.wall_s);
  }
  std::printf("untraced pass wall_s: median %.4f, lower quartile %.4f\n",
              median(walls), quantile(walls, 0.25));
  std::printf("pass wall_s:");
  for (const Pass& p : passes) {
    std::printf(" %.4f%s", p.wall_s, p.traced ? "(traced)" : "");
  }
  std::printf("\npass cpu_s:");
  for (const Pass& p : passes) std::printf(" %.4f", p.cpu_s);
  for (size_t i = 0; i < w.circuits.size(); ++i) {
    std::printf("\nop %s wall_s:", w.circuits[i].c_str());
    for (const Pass& p : passes) std::printf(" %.4f", p.op_wall_s[i]);
  }
  std::printf("\nsetup_s:");
  for (double s : setup_times) std::printf(" %.4f", s);
  std::printf("\n");
  for (const std::string& f : t.first_failures) {
    std::printf("FAILED %s\n", f.c_str());
  }
  std::printf("failed_pct %.3f (%lld of %lld operations)\n",
              100.0 * ratio(static_cast<double>(t.failed),
                            static_cast<double>(t.attempted)),
              static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted));
  std::printf("{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"host_cores\": %u, \"workers\": %d, \"simd_width_bits\": %d, "
              "\"simd_policy\": \"%s\", \"build_type\": \"%s\", "
              "\"passes\": %zu, \"circuits\": %zu}}\n",
              w.name, static_cast<unsigned long long>(c.seed),
              std::thread::hardware_concurrency(), w.workers,
              apx::simd::width_bits(), apx::simd::policy(),
              CEDBENCH_BUILD_TYPE, passes.size(), w.circuits.size());
}

/// Sums and means of one field over the reference pass's operations.
struct OpTotals {
  const std::vector<Outcome>& ops;
  template <typename Field>
  double sum(Field Outcome::*field) const {
    double s = 0.0;
    for (const Outcome& o : ops) s += static_cast<double>(o.*field);
    return s;
  }
  template <typename Field>
  double mean(Field Outcome::*field) const {
    return ops.empty() ? 0.0 : sum(field) / static_cast<double>(ops.size());
  }
};

std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       const OpTotals& ops,
                                       const std::vector<double>& setup_times) {
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);
  const double wall = quantile(walls, 0.25);
  const double fault_runs =
      ops.sum(&Outcome::reliability_runs) + ops.sum(&Outcome::coverage_runs);
  return {
      {"wall_q1_s", wall, "s"},
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"fault_runs_per_s", ratio(fault_runs, wall), "1/s"},
      {"coverage_pct", ops.mean(&Outcome::coverage_pct), "%"},
      {"area_overhead_pct", ops.mean(&Outcome::area_pct), "%"},
      {"power_overhead_pct", ops.mean(&Outcome::power_pct), "%"},
      {"approx_pct", ops.mean(&Outcome::approx_pct), "%"},
  };
}

/// Stage spans recorded by run_flow / campaign_pass.
const char* const kStages[] = {
    "mapping.quick_synthesis", "mapping.technology_map",
    "reliability.analyze",     "synthesis.synthesize",
    "ced.assemble",            "ced.coverage",
    "ced.overheads"};

std::vector<Metric> per_layer_metrics(const Config& c,
                                      const std::vector<Pass>& passes,
                                      const OpTotals& ops, double certify_s) {
  std::vector<double> untraced_walls, traced_walls, cpu_per_wall, unaccounted;
  std::map<std::string, std::vector<double>> stage_s;
  const Pass* last_traced = nullptr;
  for (const Pass& p : passes) {
    if (!p.traced) {
      untraced_walls.push_back(p.wall_s);
      cpu_per_wall.push_back(ratio(p.cpu_s, p.wall_s));
      continue;
    }
    last_traced = &p;
    traced_walls.push_back(p.wall_s);
    double total = 0.0;
    for (const auto& [name, s] : p.self_s) total += s;
    auto self = [&](const char* name) {
      auto it = p.self_s.find(name);
      return it == p.self_s.end() ? 0.0 : it->second;
    };
    // Time inside the pass but outside every stage span.
    unaccounted.push_back(100.0 * ratio(self("pass") + self("flow"), total));
    for (const char* stage : kStages) stage_s[stage].push_back(self(stage));
    for (const auto& [name, s] : p.library_phase_s) stage_s[name].push_back(s);
  }
  auto counter = [&](const char* name) {
    return static_cast<double>(last_traced->counters.at(name));
  };
  auto stage = [&](const char* name) { return median(stage_s[name]); };
  const double untraced_wall = median(untraced_walls);
  const double coverage_runs = ops.sum(&Outcome::coverage_runs);
  const double erroneous = ops.sum(&Outcome::erroneous);
  const double cache_hits = counter("bdd.order_cache_hits");
  const double cache_misses = counter("bdd.order_cache_misses");

  return {
      {"synthesis.synthesize_s", stage("synthesis.synthesize"), "s"},
      {"synthesis.pct_sweep_s", stage("synth.pct_sweep"), "s"},
      {"synthesis.repairs", ops.sum(&Outcome::repairs), "count"},
      {"synthesis.correct_after_stage1",
       ops.sum(&Outcome::correct_after_stage1), "count"},
      {"bdd.reorder_s", stage("bdd.reorder"), "s"},
      {"bdd.reorder_runs", counter("bdd.reorder_runs"), "count"},
      {"bdd.reorder_skipped_budget", counter("bdd.reorder_skipped_budget"),
       "count"},
      {"bdd.peak_nodes", counter("bdd.peak_nodes"), "count"},
      {"bdd.gc_runs", counter("bdd.gc_runs"), "count"},
      {"bdd.order_cache_hits", cache_hits, "count"},
      {"bdd.order_cache_misses", cache_misses, "count"},
      {"bdd.order_cache_hit_ratio",
       ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"oracle.bdd_queries", counter("oracle.bdd_queries"), "count"},
      {"oracle.sat_queries", counter("oracle.sat_queries"), "count"},
      {"oracle.full_rebuilds", counter("oracle.full_rebuilds"), "count"},
      {"oracle.incremental_refreshes", counter("oracle.incremental_refreshes"),
       "count"},
      {"oracle.structural_hits", counter("oracle.structural_hits"), "count"},
      {"oracle.sat_nodes_reencoded", counter("oracle.sat_nodes_reencoded"),
       "count"},
      {"oracle.sat_fallback_s", stage("oracle.sat_fallback"), "s"},
      {"sat.solves", counter("sat.solves"), "count"},
      {"sat.conflicts", counter("sat.conflicts"), "count"},
      {"sat.decisions", counter("sat.decisions"), "count"},
      {"mapping.quick_synthesis_s", stage("mapping.quick_synthesis"), "s"},
      {"mapping.technology_map_s", stage("mapping.technology_map"), "s"},
      {"mapping.functional_gates", ops.sum(&Outcome::gates), "count"},
      {"mapping.checkgen_gates", ops.sum(&Outcome::checkgen_gates), "count"},
      {"aig.quick_synthesis_calls", counter("aig.quick_synthesis_calls"),
       "count"},
      {"aig.rewrite_ands_saved", counter("aig.rewrite_ands_saved"), "count"},
      {"reliability.analyze_s", stage("reliability.analyze"), "s"},
      {"reliability.fault_runs", ops.sum(&Outcome::reliability_runs), "count"},
      {"ced.assemble_s", stage("ced.assemble"), "s"},
      {"ced.coverage_s", stage("ced.coverage"), "s"},
      {"ced.overheads_s", stage("ced.overheads"), "s"},
      {"ced.fault_runs", coverage_runs, "count"},
      {"ced.erroneous_ratio", ratio(erroneous, coverage_runs), "ratio"},
      {"ced.detected_ratio", ratio(ops.sum(&Outcome::detected), erroneous),
       "ratio"},
      {"faultsim.fault_sims", counter("faultsim.fault_sims"), "count"},
      {"faultsim.batches", counter("faultsim.batches"), "count"},
      {"faultsim.pattern_words", counter("faultsim.pattern_words"), "count"},
      {"task_pool.workers", static_cast<double>(c.workload->workers), "count"},
      {"task_pool.cpu_per_wall", median(cpu_per_wall), "ratio"},
      {"flow.unaccounted_pct", median(unaccounted), "%"},
      {"trace.overhead_pct",
       100.0 * ratio(median(traced_walls) - untraced_wall, untraced_wall), "%"},
      {"check.certify_s", certify_s, "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Config c = parse_args(argc, argv);
  // Options carry the worker count explicitly; pinning the process-wide
  // policy as well keeps any defaulted pool call at the same count.
  apx::set_thread_count(c.workload->workers);

  Inputs in;
  std::vector<double> setup_times;
  try {
    setup_times = run_setup(c, in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cedbench: set-up failed: %s\n", e.what());
    return 1;
  }

  SpanLog log;
  std::vector<apx::PipelineResult> kept;
  const std::vector<Pass> passes = run_passes(c, in, log, kept);
  const Pass* reference = nullptr;  // the last untraced pass
  for (const Pass& p : passes) {
    if (!p.traced) reference = &p;
  }

  // Checks run outside the timed passes.
  const double certify_t0 = now_s();
  const std::vector<cedbench::Verdict> verdicts =
      certify_all(c, in, *reference, kept);
  const double certify_s = now_s() - certify_t0;
  const Tally tally = count_failures(passes, *reference, verdicts);

  print_report(c, passes, *reference, setup_times, tally);
  const OpTotals ops{reference->ops};
  if (!c.trace) {
    print_result(tally.failed == 0, tally.attempted, tally.failed,
                 end_to_end_metrics(passes, ops, setup_times));
    return 0;
  }
  if (!c.trace_file.empty() && !log.write_chrome_trace(c.trace_file)) {
    std::fprintf(stderr, "cedbench: cannot write %s\n", c.trace_file.c_str());
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed,
               per_layer_metrics(c, passes, ops, certify_s));
  return 0;
}
