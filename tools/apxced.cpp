// apxced — command-line driver for the approximate-logic CED flow.
//
//   apxced stats   <circuit>                      network statistics
//   apxced convert <in> <out>                     format conversion
//   apxced synth   <circuit> [options]            synthesize the approximate
//                                                 check-symbol generator
//   apxced ced     <circuit> [options]            full CED report
//
// Options:
//   -t <threshold>   stage-1 significance threshold (default 0.2)
//   -o <file>        output file for `synth` (BLIF/.bench/.pla by extension)
//   --share          enable logic sharing (intrusive CED)
//   --samples <n>    fault-injection samples, n >= 1 (default 2000)
//   --threads <n>    worker threads of the shared task pool, n >= 1
//                    (default: APX_THREADS, else all hardware threads;
//                    results are bit-identical for any count)
//   --profile        print a per-phase wall-time / counter table to stderr
//                    after the run (synth/ced)
//   --trace <file>   write a Chrome-tracing JSON (chrome://tracing or
//                    https://ui.perfetto.dev) of the run (synth/ced)
//
// Circuits are read by extension: .blif, .bench, .pla. A malformed numeric
// value exits 1 with a message naming its flag.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/pipeline.hpp"
#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "mapping/optimize.hpp"
#include "network/bench_format.hpp"
#include "network/blif.hpp"
#include "network/pla.hpp"

namespace {

using namespace apx;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Network read_any(const std::string& path) {
  if (ends_with(path, ".blif")) return read_blif_file(path);
  if (ends_with(path, ".bench")) return read_bench_file(path);
  if (ends_with(path, ".pla")) return pla_to_network(read_pla_file(path));
  throw std::runtime_error("unknown input format (want .blif/.bench/.pla): " +
                           path);
}

void write_any(const Network& net, const std::string& path) {
  if (ends_with(path, ".blif")) {
    write_blif_file(net, path);
  } else if (ends_with(path, ".bench")) {
    write_bench_file(net, path);
  } else if (ends_with(path, ".pla")) {
    write_pla_file(network_to_pla(net), path);
  } else {
    throw std::runtime_error("unknown output format: " + path);
  }
}

int cmd_stats(const std::string& path) {
  Network net = read_any(path);
  Network mapped = technology_map(quick_synthesis(net));
  std::printf("%-20s %s\n", "name", net.name().c_str());
  std::printf("%-20s %d\n", "primary inputs", net.num_pis());
  std::printf("%-20s %d\n", "primary outputs", net.num_pos());
  std::printf("%-20s %d\n", "logic nodes", net.num_logic_nodes());
  std::printf("%-20s %d\n", "SOP literals", net.total_literals());
  std::printf("%-20s %d\n", "mapped gates", mapped.num_logic_nodes());
  std::printf("%-20s %d\n", "mapped depth", mapped.depth());
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  Network net = read_any(in);
  write_any(net, out);
  std::printf("wrote %s (%d nodes, %d POs)\n", out.c_str(),
              net.num_logic_nodes(), net.num_pos());
  return 0;
}

struct CommonArgs {
  double threshold = 0.2;
  std::string output;
  bool share = false;
  int samples = 2000;
  std::string trace_path;
  bool profile = false;
};

// `text` parsed whole by std::from_chars (no spaces, '+' or suffix).
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

CommonArgs parse_common(int argc, char** argv, int start) {
  CommonArgs args;
  for (int i = start; i < argc; ++i) {
    std::string a = argv[i];
    auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    auto need_count = [&](const std::string& flag) {
      const std::string text = need_value(flag.c_str());
      const std::optional<int> v = parse_whole<int>(text);
      if (!v || *v < 1) {
        throw std::runtime_error(flag + " needs a positive integer, got '" +
                                 text + "'");
      }
      return *v;
    };
    if (a == "-t") {
      const std::string text = need_value("-t");
      const std::optional<double> v = parse_whole<double>(text);
      if (!v || !std::isfinite(*v)) {
        throw std::runtime_error("-t needs a number, got '" + text + "'");
      }
      args.threshold = *v;
    } else if (a == "-o") {
      args.output = need_value("-o");
    } else if (a == "--share") {
      args.share = true;
    } else if (a == "--samples") {
      args.samples = need_count(a);
    } else if (a == "--threads") {
      set_thread_count(need_count(a));  // the pool's one worker limit
    } else if (a == "--trace") {
      args.trace_path = need_value("--trace");
    } else if (a == "--profile") {
      args.profile = true;
    } else {
      throw std::runtime_error("unknown option: " + a);
    }
  }
  return args;
}

void begin_tracing(const CommonArgs& args) {
  if (args.profile || !args.trace_path.empty()) trace::set_trace_enabled(true);
}

void finish_tracing(const CommonArgs& args) {
  if (!args.trace_path.empty()) {
    trace::write_chrome_trace(args.trace_path);
    std::fprintf(stderr, "wrote trace to %s\n", args.trace_path.c_str());
  }
  if (args.profile) trace::write_profile(stderr);
}

PipelineOptions to_options(const CommonArgs& args) {
  PipelineOptions opt;
  opt.approx.significance_threshold = args.threshold;
  opt.reliability.num_fault_samples = args.samples;
  opt.coverage.num_fault_samples = args.samples;
  opt.logic_sharing = args.share;
  return opt;
}

int cmd_synth(const std::string& path, const CommonArgs& args) {
  begin_tracing(args);
  Network net = read_any(path);
  PipelineResult r = run_ced_pipeline(net, to_options(args));
  finish_tracing(args);
  std::printf("directions: ");
  for (auto d : r.directions) {
    std::printf("%c", d == ApproxDirection::kZeroApprox ? '0' : '1');
  }
  std::printf("\nverified: %s   mean approximation: %.1f%%\n",
              r.synthesis.all_verified() ? "yes" : "NO",
              100.0 * r.mean_approximation_pct());
  std::printf("check generator: %d gates (original %d), depth %d (vs %d)\n",
              r.mapped_checkgen.num_logic_nodes(),
              r.mapped_original.num_logic_nodes(), r.checkgen_delay,
              r.original_delay);
  if (!args.output.empty()) {
    write_any(r.synthesis.approx, args.output);
    std::printf("wrote %s\n", args.output.c_str());
  }
  return r.synthesis.all_verified() ? 0 : 1;
}

int cmd_ced(const std::string& path, const CommonArgs& args) {
  begin_tracing(args);
  Network net = read_any(path);
  PipelineResult r = run_ced_pipeline(net, to_options(args));
  finish_tracing(args);
  std::printf("%-24s %.1f%%\n", "area overhead",
              r.overheads.area_overhead_pct());
  std::printf("%-24s %.1f%%\n", "power overhead",
              r.overheads.power_overhead_pct());
  std::printf("%-24s %.1f%% (incl. checkers)\n", "total area overhead",
              r.overheads.area_overhead_with_checkers_pct());
  std::printf("%-24s %.1f%%\n", "CED coverage",
              100.0 * r.coverage.coverage());
  std::printf("%-24s %.1f%%\n", "max attainable coverage",
              100.0 * r.reliability.max_ced_coverage);
  std::printf("%-24s %d -> %d levels\n", "delay (orig -> approx)",
              r.original_delay, r.checkgen_delay);
  if (args.share) {
    std::printf("%-24s %d nodes merged\n", "logic sharing",
                r.sharing.merged_nodes);
  }
  if (!args.output.empty()) {
    write_any(r.ced.design, args.output);
    std::printf("wrote CED design to %s\n", args.output.c_str());
  }
  return r.synthesis.all_verified() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: apxced <stats|convert|synth|ced> <circuit> "
               "[options]\n  see the header of tools/apxced.cpp\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string cmd = argv[1];
  try {
    if (cmd == "stats") return cmd_stats(argv[2]);
    if (cmd == "convert") {
      if (argc < 4) return usage();
      return cmd_convert(argv[2], argv[3]);
    }
    if (cmd == "synth") return cmd_synth(argv[2], parse_common(argc, argv, 3));
    if (cmd == "ced") return cmd_ced(argv[2], parse_common(argc, argv, 3));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apxced: %s\n", e.what());
    return 1;
  }
  return usage();
}
