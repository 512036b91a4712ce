// Fault-injection laboratory: watch the CED machinery catch (and miss)
// specific faults.
//
// Builds a CED-protected ripple-carry adder, then injects every single
// stuck-at fault in the functional circuit and classifies it:
//   detected        - output error flagged by the two-rail error pair
//   missed          - output error in the unprotected direction
//   silent          - fault never propagates to an output
//
//   $ ./examples/fault_injection_lab [benchmark] [threshold]
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/pipeline.hpp"
#include "sim/fault_engine.hpp"

using namespace apx;

int main(int argc, char** argv) {
  std::string bench = argc > 1 ? argv[1] : "rca4";
  double threshold = argc > 2 ? std::atof(argv[2]) : 0.1;

  Network net = make_benchmark(bench);
  PipelineOptions options;
  options.approx.significance_threshold = threshold;
  PipelineResult r = run_ced_pipeline(net, options);
  const CedDesign& ced = r.ced;

  std::printf("CED-protected %s: %d functional gates, %d overhead gates\n\n",
              bench.c_str(), ced.functional_area(), ced.overhead_area());

  // Both stuck-at polarities of every functional gate, simulated in one
  // batch against the same 1024 random vectors.
  const int words = 16;
  std::vector<FaultSpec> faults;
  for (NodeId site : ced.functional_nodes) {
    for (bool value : {false, true}) {
      faults.push_back(FaultSpec::stuck_at(site, value));
    }
  }
  std::vector<int64_t> err_bits(faults.size()), det_bits(faults.size());
  FaultSimEngine engine(ced.design);
  engine.run_batch(
      PatternSet::random(ced.design.num_pis(), words, 0xFA11), faults,
      [&](int i, const FaultSpec&, const FaultView& v) {
        for (int w = 0; w < words; ++w) {
          uint64_t err = 0;
          for (NodeId out : ced.functional_outputs) {
            err |= v.golden(out)[w] ^ v.faulty(out)[w];
          }
          uint64_t z1 = v.faulty(ced.error_pair.rail1)[w];
          uint64_t z2 = v.faulty(ced.error_pair.rail2)[w];
          err_bits[i] += std::popcount(err);
          det_bits[i] += std::popcount(err & ~(z1 ^ z2));
        }
      });

  int detected = 0, missed = 0, silent = 0, printed = 0;
  std::printf("%-24s %-6s %10s %10s %s\n", "fault site", "s-a", "err rate",
              "det rate", "class");
  for (size_t i = 0; i < faults.size(); ++i) {
    const FaultSite& site = faults[i].sites[0];
    const int64_t err = err_bits[i], det = det_bits[i];
    const char* cls;
    if (err == 0) {
      cls = "silent";
      ++silent;
    } else if (det > 0) {
      cls = "detected";
      ++detected;
    } else {
      cls = "missed";
      ++missed;
    }
    // Print the first few and any missed faults (the interesting ones).
    if (printed < 12 || (err > 0 && det == 0)) {
      std::printf("%-24s %-6d %9.1f%% %9.1f%% %s\n",
                  ced.design.node(site.node).name.c_str(),
                  site.stuck_value ? 1 : 0, 100.0 * err / (64.0 * words),
                  err ? 100.0 * det / err : 0.0, cls);
      ++printed;
    }
  }
  std::printf("\nfault census: %d detected, %d missed, %d silent "
              "(coverage of erroneous faults: %.1f%%)\n",
              detected, missed, silent,
              detected + missed > 0
                  ? 100.0 * detected / (detected + missed)
                  : 0.0);
  return 0;
}
