#include "reliability/reliability.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "core/task_pool.hpp"
#include "sim/fault_engine.hpp"

namespace apx {
namespace {

// An error signature records, for one erring vector, each PO's state: no
// error, erred 0->1, or erred 1->0 (a PO cannot err both ways on one
// vector). The states are the base-3 digits 0, 1, 2, packed kPosPerWord
// POs to a 64-bit word; 3^40 < 2^64.
constexpr int kPosPerWord = 40;
constexpr std::array<uint64_t, kPosPerWord> kPow3 = [] {
  std::array<uint64_t, kPosPerWord> p{};
  uint64_t x = 1;
  for (uint64_t& v : p) {
    v = x;
    x *= 3;
  }
  return p;
}();

/// Exact counts of error signatures. Open addressing with linear probing
/// over a power-of-two index of dense entry numbers; the entries (key
/// words, then the count) are stored back to back, so memory follows the
/// number of distinct signatures, not the number of erring vectors.
class SignatureHistogram {
 public:
  explicit SignatureHistogram(int key_words)
      : key_words_(key_words), stride_(key_words + 1) {}

  void add(const uint64_t* key) {
    if (4 * (num_entries() + 1) > 3 * index_.size()) grow();
    const size_t mask = index_.size() - 1;
    for (size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const uint32_t e = index_[i];
      if (e == 0) {
        entries_.insert(entries_.end(), key, key + key_words_);
        entries_.push_back(1);
        index_[i] = static_cast<uint32_t>(num_entries());
        return;
      }
      uint64_t* entry = &entries_[(e - 1) * stride_];
      if (std::equal(key, key + key_words_, entry)) {
        ++entry[key_words_];
        return;
      }
    }
  }

  /// Calls f(key, count) once per distinct signature.
  template <class F>
  void for_each(F&& f) const {
    for (size_t at = 0; at < entries_.size(); at += stride_) {
      f(&entries_[at], static_cast<int64_t>(entries_[at + key_words_]));
    }
  }

 private:
  size_t num_entries() const { return entries_.size() / stride_; }

  size_t hash(const uint64_t* key) const {
    uint64_t h = 0;
    for (int w = 0; w < key_words_; ++w) {
      h = (h ^ key[w]) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }

  void grow() {
    std::vector<uint32_t> index(index_.empty() ? 64 : 2 * index_.size(), 0);
    const size_t mask = index.size() - 1;
    for (size_t e = 0; e < num_entries(); ++e) {
      size_t i = hash(&entries_[e * stride_]) & mask;
      while (index[i] != 0) i = (i + 1) & mask;
      index[i] = static_cast<uint32_t>(e + 1);
    }
    index_.swap(index);
  }

  int key_words_;
  size_t stride_;
  std::vector<uint32_t> index_;  ///< 0 = empty, else entry number + 1
  std::vector<uint64_t> entries_;
};

/// One pool slot's private accumulators.
struct SlotCounts {
  SlotCounts(int num_pos, int key_words)
      : count01(num_pos, 0),
        count10(num_pos, 0),
        histogram(key_words),
        signatures(64 * key_words, 0) {}

  std::vector<int64_t> count01, count10;
  int64_t any_error = 0;
  SignatureHistogram histogram;  ///< one entry per distinct signature
  // Per-fault scratch: the POs the fault reached, and the signatures of
  // the current pattern word's 64 vectors (key_words words each, zero
  // between words).
  std::vector<int> touched;
  std::vector<uint64_t> signatures;
};

}  // namespace

ReliabilityReport analyze_reliability(const Network& net,
                                      const ReliabilityOptions& options) {
  ReliabilityReport report;
  report.outputs.assign(net.num_pos(), {});
  std::vector<NodeId> sites;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind == NodeKind::kLogic) sites.push_back(id);
  }
  if (sites.empty() || net.num_pos() == 0 || options.num_fault_samples <= 0) {
    return report;
  }

  FaultSimEngine engine(net);
  // The accounting below is fault-agnostic; only the sampler changes with
  // the model. The single-stuck-at draw picks one of the 2N (node,
  // polarity) pairs, pair k being node k / 2 stuck at k & 1.
  FaultSimEngine::Sampler sampler;
  if (options.model == FaultModel::kSingleStuckAt) {
    sampler = [&sites](uint64_t sample_seed) {
      const uint64_t k = SplitMix64(sample_seed).next() % (2 * sites.size());
      return FaultSpec::stuck_at(sites[k / 2], (k & 1) != 0);
    };
  } else {
    sampler = FaultSimEngine::make_sampler(sites, options);
  }

  const int P = net.num_pos();
  const int key_words = (P + kPosPerWord - 1) / kPosPerWord;
  std::vector<NodeId> drivers(P);
  for (int o = 0; o < P; ++o) drivers[o] = net.po(o).driver;
  const int64_t runs =
      static_cast<int64_t>(options.num_fault_samples) * options.vectors();

  // Lock-free accumulation: each pool slot owns private exact integer
  // counters, merged in slot order after the campaign. Integer sums are
  // exact and commutative, so the totals are bit-identical for any thread
  // count / completion order.
  //
  // One pass serves both statistics. The max-coverage count ("some PO
  // erred in its dominant direction") needs the dominant directions, which
  // are only known once every sample is in; so each erring vector's error
  // signature is counted here and scored against the directions after the
  // merge.
  std::vector<SlotCounts> slot(thread_count(), SlotCounts(P, key_words));
  engine.run_campaign(options, sampler, [&](int, const FaultSpec&,
                                            const FaultView& v) {
    SlotCounts& c = slot[v.worker_slot()];
    c.touched.clear();
    for (int o = 0; o < P; ++o) {
      if (v.touched(drivers[o])) c.touched.push_back(o);
    }
    if (c.touched.empty()) return;
    for (int w = 0; w < v.num_words(); ++w) {
      const uint64_t valid = v.word_mask(w);
      uint64_t erring = 0;  // vectors with some erring PO
      for (const int o : c.touched) {
        const uint64_t g = v.golden(drivers[o])[w];
        const uint64_t f = v.faulty(drivers[o])[w];
        const uint64_t d = (g ^ f) & valid;
        const uint64_t e01 = d & f;  // ~g & f
        const uint64_t e10 = d & g;  // g & ~f
        c.count01[o] += std::popcount(e01);
        c.count10[o] += std::popcount(e10);
        erring |= d;
        // Write PO o's digit into the signature of each vector it erred on.
        uint64_t* digits = &c.signatures[o / kPosPerWord];
        const uint64_t place = kPow3[o % kPosPerWord];
        for (uint64_t m = e01; m != 0; m &= m - 1) {
          digits[std::countr_zero(m) * key_words] += place;
        }
        for (uint64_t m = e10; m != 0; m &= m - 1) {
          digits[std::countr_zero(m) * key_words] += 2 * place;
        }
      }
      c.any_error += std::popcount(erring);
      for (; erring != 0; erring &= erring - 1) {
        uint64_t* key = &c.signatures[std::countr_zero(erring) * key_words];
        c.histogram.add(key);
        std::fill(key, key + key_words, 0);
      }
    }
  });

  std::vector<int64_t> count01(P, 0), count10(P, 0);
  int64_t any_error = 0;
  for (const SlotCounts& c : slot) {  // ordered merge over slot index
    for (int o = 0; o < P; ++o) {
      count01[o] += c.count01[o];
      count10[o] += c.count10[o];
    }
    any_error += c.any_error;
  }
  for (int o = 0; o < P; ++o) {
    report.outputs[o].rate_0_to_1 =
        static_cast<double>(count01[o]) / static_cast<double>(runs);
    report.outputs[o].rate_1_to_0 =
        static_cast<double>(count10[o]) / static_cast<double>(runs);
  }

  // Score against the final directions: a vector counts when some PO
  // erred in its protected direction (0->1 for a kZeroApprox PO, 1->0 for
  // a kOneApprox one).
  const std::vector<ApproxDirection> dirs = choose_directions(report);
  int64_t dominant_detectable = 0;
  for (const SlotCounts& c : slot) {
    c.histogram.for_each([&](const uint64_t* key, int64_t count) {
      for (int w = 0; w < key_words; ++w) {
        int o = w * kPosPerWord;
        for (uint64_t digits = key[w]; digits != 0; digits /= 3, ++o) {
          const uint64_t digit = digits % 3;
          if (digit != 0 &&
              (digit == 1) == (dirs[o] == ApproxDirection::kZeroApprox)) {
            dominant_detectable += count;
            return;
          }
        }
      }
    });
  }

  report.runs = runs;
  report.any_output_error_rate =
      static_cast<double>(any_error) / static_cast<double>(runs);
  report.max_ced_coverage =
      any_error > 0 ? static_cast<double>(dominant_detectable) /
                          static_cast<double>(any_error)
                    : 0.0;
  return report;
}

std::vector<ApproxDirection> choose_directions(const ReliabilityReport& r) {
  std::vector<ApproxDirection> dirs;
  dirs.reserve(r.outputs.size());
  for (const auto& p : r.outputs) dirs.push_back(p.dominant());
  return dirs;
}

}  // namespace apx
