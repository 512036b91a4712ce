// Shared-pattern, multi-threaded fault-simulation engine (single and
// multi-site stuck-at faults, plus burst-transient faults): the library's
// one fault injector. Transition faults reduce to stuck-ats on it, counted
// on the launched vectors (core/delay_ced.cpp).
//
// The measurement loops behind the paper's headline numbers (CED coverage,
// per-output error rates) sample thousands of (fault, vector-batch) pairs.
// The naive formulation re-generates a PatternSet and re-runs the entire
// golden machine once per sample — O(samples x network). This engine uses
// the classic "one golden run, N cone-incremental injections" structure:
//
//   * fault samples are grouped into batches that share one golden
//     simulation of one random PatternSet;
//   * each fault is evaluated event-driven over its fanout cone only,
//     walked level-by-level from precomputed fanout adjacency, with
//     propagation stopping as soon as a node's faulty value collapses back
//     to its golden value;
//   * a campaign is one loop over its pattern batches on the shared
//     process-wide task pool (core/task_pool.hpp): each task draws its
//     batch's patterns, simulates golden into the executing worker's own
//     golden plane, then injects the batch's faults in sample order — one
//     fork/join per campaign, golden runs in parallel. run_batch, which
//     has only one batch, keeps one shared read-only golden image and
//     spreads its faults over the pool instead;
//   * every pool slot owns reusable scratch (golden and faulty planes,
//     epochs, level buckets), sized before the loop — no per-injection
//     allocations;
//   * value planes are flat 64-byte-aligned SoA arenas (sim/arena.hpp)
//     evaluated by the runtime-dispatched SIMD kernels (sim/kernels.hpp);
//   * results are bit-identical for any thread count AND any SIMD width:
//     all randomness is derived deterministically per object index (see
//     sim/rng.hpp), visitors write into per-sample slots, and every kernel
//     tier computes the same pure bitwise function;
//   * campaigns may use pattern counts that are not multiples of 64
//     (vectors_per_fault): the final partial word's padding bits are
//     masked out of excitation, propagation-death, and detection checks,
//     so they can never count toward coverage;
//   * fault models beyond single stuck-at ride the same walk: a FaultSpec
//     seeds every site's row up front (transient sites force only their
//     burst window's bits, keeping golden elsewhere) and schedules the
//     union of the sites' fanouts; site rows are pinned for the batch so
//     the walk never re-evaluates them, which keeps the schedule — and
//     hence the results — independent of thread count and visit order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "network/network.hpp"
#include "network/topology_view.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace apx {

/// Fault models a campaign can sample from. All three ride the same
/// event-driven cone walk.
enum class FaultModel {
  kSingleStuckAt,   ///< one permanent stuck-at site per sample
  kMultiStuckAt,    ///< `sites_per_fault` simultaneous stuck-at sites
  kTransientBurst,  ///< one site forced only on a contiguous vector window
};

const char* fault_model_name(FaultModel model);

/// One site of a (possibly multi-site) fault. A permanent site forces
/// `stuck_value` on every pattern vector; a transient site forces it only
/// on vectors [burst_start, burst_start + burst_length) and carries the
/// golden value everywhere else.
struct FaultSite {
  NodeId node = kNullNode;
  bool stuck_value = false;
  bool transient = false;
  int32_t burst_start = 0;
  int32_t burst_length = 0;
};

/// A sampled fault: up to kMaxSites simultaneous sites. Plain value type;
/// construct single stuck-ats through the factory.
struct FaultSpec {
  static constexpr int kMaxSites = 4;

  FaultSite sites[kMaxSites] = {};
  int num_sites = 0;

  /// One permanent stuck-at-`stuck_value` site on the output of `node`.
  static FaultSpec stuck_at(NodeId node, bool stuck_value) {
    FaultSpec spec;
    spec.sites[0].node = node;
    spec.sites[0].stuck_value = stuck_value;
    spec.num_sites = 1;
    return spec;
  }

  /// Appends a site; throws std::logic_error beyond kMaxSites.
  void add(const FaultSite& site);
};

/// Read-only view of one fault's effect on the current pattern batch,
/// handed to campaign visitors. Pointers are into the batch's golden
/// plane and the calling worker's arena; valid only during the visit.
class FaultView {
 public:
  int num_words() const { return num_words_; }

  /// Number of valid pattern vectors in this batch; the high
  /// 64*num_words() - num_vectors() bits of the final word are padding.
  int num_vectors() const { return num_vectors_; }

  /// Valid-pattern mask of word w: all-ones except for the final word,
  /// whose padding bits are zero. AND this into any per-word popcount so
  /// padding patterns never reach a measurement.
  uint64_t word_mask(int w) const {
    return w + 1 == num_words_ ? tail_mask_ : ~0ULL;
  }

  /// Golden (fault-free) value words of a node.
  const uint64_t* golden(NodeId id) const {
    return golden_ + static_cast<size_t>(id) * stride_;
  }

  /// Value words of a node under the injected fault; identical storage to
  /// golden(id) when the fault cone did not reach the node.
  const uint64_t* faulty(NodeId id) const {
    return valid_[id] == epoch_
               ? values_ + static_cast<size_t>(id) * stride_
               : golden(id);
  }

  /// True when the fault perturbed this node on some *valid* pattern
  /// (padding bits of the final word never count).
  bool touched(NodeId id) const { return valid_[id] == epoch_; }

  /// Task-pool slot of the worker producing this view: dense in
  /// [0, apx::thread_count()) and unique among concurrently running
  /// visitors, so callers can accumulate into per-slot buffers without
  /// locking (merge them in slot order for bit-identical totals).
  int worker_slot() const { return worker_slot_; }

 private:
  friend class FaultSimEngine;
  const uint64_t* golden_ = nullptr;
  const uint64_t* values_ = nullptr;
  const uint32_t* valid_ = nullptr;
  uint32_t epoch_ = 0;
  int num_words_ = 0;
  int num_vectors_ = 0;
  int stride_ = 0;  ///< words per node row in both planes
  uint64_t tail_mask_ = ~0ULL;
  int worker_slot_ = 0;
};

/// A Monte-Carlo campaign: `num_fault_samples` sampled faults, each
/// simulated against `words_per_fault` 64-bit pattern words, with
/// `faults_per_batch` samples amortizing one shared golden run. The one
/// declaration of the campaign knobs: the option structs of reliability,
/// CED coverage, masking and partial duplication derive from it and only
/// change its defaults.
struct CampaignOptions {
  int num_fault_samples = 2000;
  int words_per_fault = 4;
  /// Pattern vectors per fault. 0 (default) means words_per_fault * 64; a
  /// positive value overrides words_per_fault (words = ceil(v / 64)) and
  /// masks the final word's padding bits out of all detection decisions.
  int vectors_per_fault = 0;
  /// Samples sharing one golden simulation (and its patterns). Larger
  /// values amortize more golden work; smaller values see more distinct
  /// vectors across the campaign.
  int faults_per_batch = 64;
  uint64_t seed = 0x5EED;

  /// Fault model the stock samplers draw from (make_sampler). The engine
  /// core is model-agnostic — a campaign's model is whatever its sampler
  /// returns; these knobs parameterize the stock samplers only.
  FaultModel model = FaultModel::kSingleStuckAt;
  /// Simultaneous stuck-at sites per sample under kMultiStuckAt
  /// (clamped to [1, FaultSpec::kMaxSites]; sites are distinct nodes).
  int sites_per_fault = 2;
  /// Length of the forced vector window under kTransientBurst (clamped to
  /// [1, vectors]; the window start is derived from the sample seed).
  int burst_vectors = 16;

  /// Pattern vectors each fault is simulated against.
  int vectors() const {
    return vectors_per_fault > 0 ? vectors_per_fault : words_per_fault * 64;
  }
};

/// Bit-parallel fault-simulation engine over a fixed network.
///
/// Thread-safety: run_campaign / run_batch are themselves not reentrant
/// (one campaign at a time per engine), but they invoke the visitor
/// concurrently from worker threads — a visitor must only touch state
/// owned by its sample index (or synchronize explicitly).
class FaultSimEngine {
 public:
  explicit FaultSimEngine(const Network& net);
  ~FaultSimEngine();

  FaultSimEngine(const FaultSimEngine&) = delete;
  FaultSimEngine& operator=(const FaultSimEngine&) = delete;

  /// Draws the fault for a sample from its derived seed. Must be pure: the
  /// returned fault depends only on sample_seed, never on call order.
  /// Contract: samplers should return *live* sites — gate-level nodes that
  /// are observable (have fanouts or drive a PO) and, for constants, the
  /// opposite polarity. Dead sites can never produce an erroneous run, so
  /// run_campaign throws std::logic_error naming the first one.
  using Sampler = std::function<FaultSpec(uint64_t sample_seed)>;
  /// Called exactly once per sample with that fault's view of its batch.
  using Visitor = std::function<void(int sample_index, const FaultSpec& fault,
                                     const FaultView& view)>;

  /// Runs a Monte-Carlo campaign: sample i's fault is
  /// sampler(derive_seed(seed, i)); batch b's patterns are
  /// PatternSet::random(pis, words_per_fault, derive_seed(seed ^
  /// kPatternStream, b)). Visitor calls may run concurrently but every
  /// sample index is visited exactly once, with identical (fault, view)
  /// content for any worker count and any SIMD tier. Runs on
  /// min(apx::thread_count(), batches) workers.
  void run_campaign(const CampaignOptions& options, const Sampler& sampler,
                    const Visitor& visit);

  /// Stock deterministic sampler for `options.model`, drawing uniformly
  /// from `sites` with per-site random polarity. kMultiStuckAt draws
  /// `options.sites_per_fault` distinct nodes; kTransientBurst places a
  /// `options.burst_vectors`-long forced window uniformly inside the
  /// campaign's vector range, both derived purely from the sample seed.
  /// kSingleStuckAt draws the site as `rng() % sites.size()`, then the
  /// polarity, from one SplitMix64 stream. `sites` must be non-empty.
  static Sampler make_sampler(std::vector<NodeId> sites,
                              const CampaignOptions& options);

  /// True when a stuck-at of this polarity at `node` can ever produce an
  /// erroneous run: the node is observable (fanouts or a PO driver) and is
  /// not a constant of the same polarity.
  bool is_live_site(NodeId node, bool stuck_value) const;

  /// Lower-level building block: one golden run on `patterns`, then every
  /// fault in `faults` evaluated against it (visit called with the fault's
  /// position in the list as sample index). A positive num_vectors
  /// restricts detection to the first num_vectors patterns (the final
  /// word's padding bits are masked out). Runs on
  /// min(apx::thread_count(), faults) workers; results are bit-identical
  /// for any worker count. Structural validation only — the caller owns
  /// the explicit fault list, so dead sites are simulated.
  void run_batch(const PatternSet& patterns,
                 const std::vector<FaultSpec>& faults, const Visitor& visit,
                 int num_vectors = 0);

  const Network& network() const { return net_; }

  /// Pattern-stream tag of the seed contract (exposed for reproducing a
  /// campaign's pattern batches outside the engine).
  static constexpr uint64_t kPatternStream = 0xBA7C85EEDULL;

 private:
  struct Worker;

  /// Sets the batch geometry shared by every golden and faulty plane: a
  /// non-positive num_vectors means all num_words * 64 vectors; more than
  /// that throws std::logic_error.
  void set_geometry(int num_words, int num_vectors);
  /// Golden simulation of `patterns` into `golden`, already sized to the
  /// current geometry; `fanin` is the caller's scratch.
  void simulate_golden(const PatternSet& patterns, ValueArena& golden,
                       std::vector<const uint64_t*>& fanin) const;
  void simulate_fault(Worker& w, const ValueArena& golden,
                      const FaultSpec& fault) const;
  /// Structural validation (range, duplicate sites, burst shape); throws
  /// std::logic_error. Returns true when every site is live.
  bool validate_spec(const FaultSpec& spec, int num_vectors) const;
  FaultView view_of(const Worker& w, const ValueArena& golden, int slot) const;
  /// Sizes the first `threads` workers' scratch (and, with `own_golden`,
  /// their golden planes) for the current geometry before a loop, so no
  /// task allocates; zeroes their node_evals.
  void prepare_workers(int threads, bool own_golden);
  /// Dispatches f(worker, slot, i) for i in [0, count) over up to
  /// `threads` prepared workers on the shared task pool (worker `slot` is
  /// exclusive to the executing thread for the duration of the loop).
  void parallel_for(int count, int threads,
                    const std::function<void(Worker&, int, int)>& f);

  const Network& net_;
  /// observable_[id]: node has fanouts or drives a PO (dead-site check).
  std::vector<uint8_t> observable_;
  /// Shared structure snapshot: topo order, levels, CSR fanout adjacency.
  /// Held for the engine's lifetime (the network must not mutate under a
  /// running campaign — same contract as before).
  std::shared_ptr<const TopologyView> view_;

  int num_words_ = 0;
  int num_vectors_ = 0;
  uint64_t tail_mask_ = ~0ULL;  ///< valid bits of the final word
  /// run_batch's golden plane, shared read-only by its workers (campaigns
  /// use each worker's own plane instead).
  ValueArena golden_;

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace apx
