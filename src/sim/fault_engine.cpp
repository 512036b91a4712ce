#include "sim/fault_engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/task_pool.hpp"
#include "core/trace.hpp"

namespace apx {

namespace {

/// Bit mask of word `w` covering the vector window [start, start + len).
/// Bits outside the window are zero; a window that does not intersect the
/// word yields 0.
uint64_t window_word_mask(int32_t start, int32_t len, int w) {
  const int64_t lo = static_cast<int64_t>(w) * 64;
  const int64_t hi = lo + 64;
  const int64_t s = std::max<int64_t>(start, lo);
  const int64_t e = std::min<int64_t>(static_cast<int64_t>(start) + len, hi);
  if (s >= e) return 0;
  const int b = static_cast<int>(e - lo);
  const int a = static_cast<int>(s - lo);
  const uint64_t upto = b == 64 ? ~0ULL : (1ULL << b) - 1;
  return upto & ~((1ULL << a) - 1);
}

/// Reshapes `arena` to `rows x words` unless it already has that shape;
/// returns true when it did (the plane is then zeroed).
bool reshape(ValueArena& arena, int rows, int words) {
  if (arena.rows() == rows && arena.words() == words) return false;
  arena.reset(rows, words);
  return true;
}

}  // namespace

const char* fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::kSingleStuckAt: return "single_stuck_at";
    case FaultModel::kMultiStuckAt: return "multi_stuck_at";
    case FaultModel::kTransientBurst: return "transient_burst";
  }
  return "unknown";
}

void FaultSpec::add(const FaultSite& site) {
  if (num_sites >= kMaxSites) {
    throw std::logic_error("FaultSpec::add: more than kMaxSites sites");
  }
  sites[num_sites++] = site;
}

/// Per-thread scratch state: a faulty-value arena plus the event queue of
/// the level-by-level cone walk, and, in campaigns, the golden plane of the
/// batch this worker is simulating. Reused across faults and batches — no
/// allocations on the injection path.
struct FaultSimEngine::Worker {
  ValueArena golden;              ///< campaign batch's golden plane
  ValueArena values;              ///< faulty plane (one row per node)
  std::vector<uint32_t> valid;    ///< epoch at which values row is current
  std::vector<uint32_t> queued;   ///< epoch at which id was scheduled
  uint32_t epoch = 0;
  std::vector<std::vector<NodeId>> buckets;  ///< event queue by level
  std::vector<const uint64_t*> fanin;        ///< scratch fanin pointers
  int64_t node_evals = 0;  ///< cone nodes evaluated (faultsim.node_evals)
};

FaultSimEngine::FaultSimEngine(const Network& net)
    : net_(net), view_(net.topology()) {
  observable_.assign(net.num_nodes(), 0);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (!view_->fanouts(id).empty()) observable_[id] = 1;
  }
  for (const PrimaryOutput& po : net.pos()) {
    if (po.driver != kNullNode) observable_[po.driver] = 1;
  }
}

bool FaultSimEngine::is_live_site(NodeId node, bool stuck_value) const {
  if (node < 0 || node >= net_.num_nodes()) return false;
  const NodeKind kind = net_.node(node).kind;
  if (kind == NodeKind::kConst0 && !stuck_value) return false;
  if (kind == NodeKind::kConst1 && stuck_value) return false;
  return observable_[node] != 0;
}

bool FaultSimEngine::validate_spec(const FaultSpec& spec,
                                   int num_vectors) const {
  if (spec.num_sites <= 0 || spec.num_sites > FaultSpec::kMaxSites) {
    throw std::logic_error(
        "FaultSimEngine: FaultSpec with no sites (or too many)");
  }
  bool live = true;
  for (int s = 0; s < spec.num_sites; ++s) {
    const FaultSite& site = spec.sites[s];
    // Every negative id is invalid, not only kNullNode: a site below it
    // would index before the value arena.
    if (site.node < 0 || site.node >= net_.num_nodes()) {
      throw std::logic_error(
          "FaultSimEngine: sampler returned an out-of-range fault site");
    }
    for (int t = 0; t < s; ++t) {
      if (spec.sites[t].node == site.node) {
        throw std::logic_error(
            "FaultSimEngine: FaultSpec names the same node twice");
      }
    }
    if (site.transient &&
        (site.burst_length <= 0 || site.burst_start < 0 ||
         site.burst_start >= num_vectors)) {
      throw std::logic_error(
          "FaultSimEngine: transient burst window outside the campaign's "
          "vector range");
    }
    live = live && is_live_site(site.node, site.stuck_value);
  }
  return live;
}

FaultSimEngine::~FaultSimEngine() = default;

void FaultSimEngine::set_geometry(int num_words, int num_vectors) {
  const int total = num_words * 64;
  if (num_vectors <= 0) num_vectors = total;
  if (num_vectors > total) {
    throw std::logic_error(
        "FaultSimEngine: num_vectors exceeds the pattern set");
  }
  num_words_ = num_words;
  num_vectors_ = num_vectors;
  tail_mask_ = (num_vectors % 64) != 0
                   ? (1ULL << (num_vectors % 64)) - 1
                   : ~0ULL;
}

void FaultSimEngine::simulate_golden(
    const PatternSet& patterns, ValueArena& golden,
    std::vector<const uint64_t*>& fanin) const {
  trace::Span span("faultsim.golden");
  if (trace::enabled()) {
    static trace::Counter& batches = trace::counter("faultsim.batches");
    static trace::Counter& words = trace::counter("faultsim.pattern_words");
    batches.add(1);
    words.add(patterns.num_words());
  }
  const int W = num_words_;
  for (int i = 0; i < net_.num_pis(); ++i) {
    std::memcpy(golden.row(net_.pis()[i]), patterns.column(i).data(),
                sizeof(uint64_t) * W);
  }
  for (NodeId id : view_->topo()) {
    const Node& n = net_.node(id);
    uint64_t* out = golden.row(id);
    switch (n.kind) {
      case NodeKind::kPi:
        break;
      case NodeKind::kConst0:
        std::fill(out, out + W, 0ULL);
        break;
      case NodeKind::kConst1:
        std::fill(out, out + W, ~0ULL);
        break;
      case NodeKind::kLogic: {
        fanin.clear();
        for (NodeId f : n.fanins) fanin.push_back(golden.row(f));
        eval_sop_words(n.sop, fanin.data(), W, out);
        break;
      }
    }
  }
}

// The one injection walk: seeds every site's row, then re-evaluates the
// union of the sites' fanout cones level by level, dropping an event as
// soon as a node's faulty row collapses back to golden.
void FaultSimEngine::simulate_fault(Worker& w, const ValueArena& golden,
                                    const FaultSpec& spec) const {
  const int W = num_words_;
  if (++w.epoch == 0) {
    // uint32 epoch wrapped: old marks would alias the fresh epoch.
    std::fill(w.valid.begin(), w.valid.end(), 0u);
    std::fill(w.queued.begin(), w.queued.end(), 0u);
    w.epoch = 1;
  }
  const uint32_t epoch = w.epoch;
  const TopologyView& view = *view_;

  // Pin every site before seeding: a site's row is forced below and must
  // never be re-evaluated by the cone walk, even when it lies inside
  // another site's fanout cone — a stuck site blocks propagation through
  // itself, and a transient site holds golden outside its burst window.
  // Pinning also makes the event schedule a pure function of the spec
  // (site order, then CSR fanout order), independent of threads.
  for (int s = 0; s < spec.num_sites; ++s) {
    w.queued[spec.sites[s].node] = epoch;
  }

  auto schedule = [&](NodeId id) {
    if (w.queued[id] != epoch) {
      w.queued[id] = epoch;
      w.buckets[view.level(id)].push_back(id);
    }
  };

  int min_level = view.max_level();
  bool excited = false;
  for (int s = 0; s < spec.num_sites; ++s) {
    const FaultSite& site = spec.sites[s];
    const uint64_t forced = site.stuck_value ? ~0ULL : 0ULL;
    uint64_t* fv = w.values.row(site.node);
    const uint64_t* gv = golden.row(site.node);
    if (!site.transient) {
      std::fill(fv, fv + W, forced);
    } else {
      for (int word = 0; word < W; ++word) {
        const uint64_t m =
            window_word_mask(site.burst_start, site.burst_length, word);
        fv[word] = (gv[word] & ~m) | (forced & m);
      }
    }
    // Site value equals golden on every valid pattern: nothing propagates
    // from this site (padding bits of the final word never excite it).
    if (!rows_differ(fv, gv, W, tail_mask_)) continue;
    w.valid[site.node] = epoch;
    excited = true;
    min_level = std::min(min_level, view.level(site.node));
    for (NodeId o : view.fanouts(site.node)) schedule(o);
  }
  if (!excited) return;

  const int max_level = view.max_level();
  for (int lvl = min_level + 1; lvl <= max_level; ++lvl) {
    auto& bucket = w.buckets[lvl];
    w.node_evals += static_cast<int64_t>(bucket.size());
    for (NodeId id : bucket) {
      const Node& n = net_.node(id);
      w.fanin.clear();
      for (NodeId f : n.fanins) {
        w.fanin.push_back(w.valid[f] == epoch ? w.values.row(f)
                                              : golden.row(f));
      }
      uint64_t* out = w.values.row(id);
      eval_sop_words(n.sop, w.fanin.data(), W, out);
      // Faulty value collapsed back to golden on every valid pattern: the
      // event dies here (padding differences cannot keep it alive).
      if (!rows_differ(out, golden.row(id), W, tail_mask_)) continue;
      w.valid[id] = epoch;
      for (NodeId o : view.fanouts(id)) schedule(o);
    }
    bucket.clear();
  }
}

FaultView FaultSimEngine::view_of(const Worker& w, const ValueArena& golden,
                                  int slot) const {
  FaultView v;
  v.golden_ = golden.row(0);
  v.values_ = w.values.row(0);
  v.valid_ = w.valid.data();
  v.epoch_ = w.epoch;
  v.num_words_ = num_words_;
  v.num_vectors_ = num_vectors_;
  v.stride_ = golden.stride();
  v.tail_mask_ = tail_mask_;
  v.worker_slot_ = slot;
  return v;
}

void FaultSimEngine::prepare_workers(int threads, bool own_golden) {
  while (static_cast<int>(workers_.size()) < threads) {
    workers_.push_back(std::make_unique<Worker>());
  }
  const int nodes = net_.num_nodes();
  for (int t = 0; t < threads; ++t) {
    Worker& w = *workers_[t];
    if (reshape(w.values, nodes, num_words_)) {
      w.valid.assign(nodes, 0);
      w.queued.assign(nodes, 0);
      w.epoch = 0;
      w.buckets.assign(view_->max_level() + 1, {});
      w.fanin.clear();
    }
    if (own_golden) reshape(w.golden, nodes, num_words_);
    w.node_evals = 0;
  }
}

// All parallelism rides the shared task pool: the engine never spawns
// threads of its own, so nested use (e.g. a whole-pipeline task per
// benchmark row, each running campaigns inside) shares one set of workers.
void FaultSimEngine::parallel_for(
    int count, int threads, const std::function<void(Worker&, int, int)>& f) {
  TaskPool::instance().parallel_for_slotted(
      0, count, threads, /*grain=*/1, [&](int slot, int64_t i) {
        f(*workers_[slot], slot, static_cast<int>(i));
      });
  if (trace::enabled()) {
    static trace::Counter& evals = trace::counter("faultsim.node_evals");
    int64_t total = 0;
    for (int t = 0; t < threads; ++t) total += workers_[t]->node_evals;
    evals.add(total);
  }
}

void FaultSimEngine::run_campaign(const CampaignOptions& options,
                                  const Sampler& sampler,
                                  const Visitor& visit) {
  if ((options.words_per_fault <= 0 && options.vectors_per_fault <= 0) ||
      options.faults_per_batch <= 0) {
    throw std::invalid_argument(
        "FaultSimEngine::run_campaign: non-positive batch geometry");
  }
  trace::Span span("faultsim.campaign");
  const int vectors = options.vectors_per_fault > 0
                          ? options.vectors_per_fault
                          : options.words_per_fault * 64;
  const int words = (vectors + 63) / 64;
  const int samples = options.num_fault_samples;
  if (samples <= 0) return;
  std::vector<FaultSpec> faults(samples);
  for (int i = 0; i < samples; ++i) {
    faults[i] = sampler(derive_seed(options.seed, static_cast<uint64_t>(i)));
    if (!validate_spec(faults[i], vectors)) {
      throw std::logic_error(
          "FaultSimEngine::run_campaign: sampler returned a dead fault site "
          "(sample " +
          std::to_string(i) +
          "): a same-polarity stuck-at on a constant or an unobservable "
          "node can never produce an erroneous run; fix the sampler's site "
          "list");
    }
  }
  if (trace::enabled()) {
    static trace::Counter& sims = trace::counter("faultsim.fault_sims");
    sims.add(samples);
  }
  set_geometry(words, vectors);
  const int per_batch = options.faults_per_batch;
  const int num_batches = (samples + per_batch - 1) / per_batch;
  const int threads = std::min(thread_count(), num_batches);
  prepare_workers(threads, /*own_golden=*/true);
  // One pool task per pattern batch: the worker draws the batch's
  // patterns, simulates golden into its own plane, then walks the batch's
  // faults in sample order against it. Patterns and faults are pure in
  // their index, so every sample sees the same view on any worker.
  parallel_for(num_batches, threads, [&](Worker& w, int slot, int b) {
    const PatternSet patterns = PatternSet::random(
        net_.num_pis(), words,
        derive_seed(options.seed ^ kPatternStream, static_cast<uint64_t>(b)));
    simulate_golden(patterns, w.golden, w.fanin);
    const int end = std::min(samples, (b + 1) * per_batch);
    for (int i = b * per_batch; i < end; ++i) {
      simulate_fault(w, w.golden, faults[i]);
      visit(i, faults[i], view_of(w, w.golden, slot));
    }
  });
}

void FaultSimEngine::run_batch(const PatternSet& patterns,
                               const std::vector<FaultSpec>& faults,
                               const Visitor& visit, int num_vectors) {
  if (patterns.num_pis() != net_.num_pis()) {
    throw std::logic_error("FaultSimEngine: PI count mismatch");
  }
  set_geometry(patterns.num_words(), num_vectors);
  const int count = static_cast<int>(faults.size());
  const int threads = std::max(1, std::min(thread_count(), count));
  prepare_workers(threads, /*own_golden=*/false);
  // One batch: a single golden image shared read-only by every worker.
  reshape(golden_, net_.num_nodes(), num_words_);
  simulate_golden(patterns, golden_, workers_[0]->fanin);
  // Structural validation only (range, duplicates, burst shape): the
  // caller owns the explicit fault list, so dead sites are allowed here.
  for (const FaultSpec& spec : faults) validate_spec(spec, num_vectors_);
  if (count == 0) return;
  if (trace::enabled()) {
    static trace::Counter& sims = trace::counter("faultsim.fault_sims");
    sims.add(count);
  }
  parallel_for(count, threads, [&](Worker& w, int slot, int i) {
    simulate_fault(w, golden_, faults[i]);
    visit(i, faults[i], view_of(w, golden_, slot));
  });
}

FaultSimEngine::Sampler FaultSimEngine::make_sampler(
    FaultModel model, std::vector<NodeId> sites,
    const CampaignOptions& options) {
  if (sites.empty()) {
    throw std::invalid_argument(
        "FaultSimEngine::make_sampler: empty site list");
  }
  const int vectors = options.vectors_per_fault > 0
                          ? options.vectors_per_fault
                          : options.words_per_fault * 64;
  switch (model) {
    case FaultModel::kSingleStuckAt:
      // Site first, then polarity: the draw order every recorded
      // single-stuck-at coverage result depends on.
      return [sites = std::move(sites)](uint64_t sample_seed) {
        SplitMix64 rng(sample_seed);
        const NodeId node = sites[rng.next() % sites.size()];
        const bool stuck_value = (rng.next() & 1) != 0;
        return FaultSpec::stuck_at(node, stuck_value);
      };
    case FaultModel::kMultiStuckAt: {
      const int k = std::min(std::max(options.sites_per_fault, 1),
                             FaultSpec::kMaxSites);
      // `sites` must hold at least k distinct nodes or the rejection loop
      // below cannot terminate; the size check catches the common case.
      if (static_cast<size_t>(k) > sites.size()) {
        throw std::invalid_argument(
            "FaultSimEngine::make_sampler: fewer candidate sites than "
            "sites_per_fault");
      }
      return [sites = std::move(sites), k](uint64_t sample_seed) {
        SplitMix64 rng(sample_seed);
        FaultSpec spec;
        while (spec.num_sites < k) {
          const NodeId node = sites[rng.next() % sites.size()];
          bool duplicate = false;
          for (int s = 0; s < spec.num_sites; ++s) {
            duplicate = duplicate || spec.sites[s].node == node;
          }
          if (duplicate) continue;
          FaultSite site;
          site.node = node;
          site.stuck_value = (rng.next() & 1) != 0;
          spec.add(site);
        }
        return spec;
      };
    }
    case FaultModel::kTransientBurst: {
      const int burst = std::min(std::max(options.burst_vectors, 1), vectors);
      return [sites = std::move(sites), burst, vectors](uint64_t sample_seed) {
        SplitMix64 rng(sample_seed);
        FaultSite site;
        site.node = sites[rng.next() % sites.size()];
        site.stuck_value = (rng.next() & 1) != 0;
        site.transient = true;
        site.burst_length = burst;
        site.burst_start = static_cast<int32_t>(
            rng.next() % static_cast<uint64_t>(vectors - burst + 1));
        FaultSpec spec;
        spec.add(site);
        return spec;
      };
    }
  }
  throw std::invalid_argument("FaultSimEngine::make_sampler: unknown model");
}

}  // namespace apx
