#include "sim/kernels.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define APX_SIMD_X86 1
#include <immintrin.h>
#else
#define APX_SIMD_X86 0
#endif

namespace apx {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernel. The word range [begin, end) form also serves as the
// sub-lane tail of the vector kernels, so all tiers share one definition of
// the per-word semantics (including the treatment of kEmpty positions,
// which behave like kNeg exactly as the historical code did).
// ---------------------------------------------------------------------------

void eval_sop_scalar_range(const Sop& sop, const uint64_t* const* fanin,
                           int begin, int end, uint64_t* out) {
  for (int w = begin; w < end; ++w) {
    uint64_t acc = 0;
    for (const Cube& c : sop.cubes()) {
      uint64_t t = ~0ULL;
      for (int k = 0; k < sop.num_vars() && t; ++k) {
        LitCode code = c.get(k);
        if (code == LitCode::kFree) continue;
        uint64_t v = fanin[k][w];
        t &= (code == LitCode::kPos) ? v : ~v;
      }
      acc |= t;
      if (acc == ~0ULL) break;
    }
    out[w] = acc;
  }
}

void eval_sop_scalar(const Sop& sop, const uint64_t* const* fanin,
                     int num_words, uint64_t* out) {
  eval_sop_scalar_range(sop, fanin, 0, num_words, out);
}

#if APX_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernel: 4 words (256 pattern bits) per step. The early exits mirror
// the scalar ones at vector granularity (a cube dies when its product is
// zero on all four lanes; a node is done when the accumulator is all-ones
// on all four lanes) — they prune work without changing any output bit.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void eval_sop_avx2(
    const Sop& sop, const uint64_t* const* fanin, int num_words,
    uint64_t* out) {
  const int nv = sop.num_vars();
  const __m256i ones = _mm256_set1_epi64x(-1);
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    __m256i acc = _mm256_setzero_si256();
    for (const Cube& c : sop.cubes()) {
      __m256i t = ones;
      for (int k = 0; k < nv; ++k) {
        LitCode code = c.get(k);
        if (code == LitCode::kFree) continue;
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(fanin[k] + w));
        t = (code == LitCode::kPos) ? _mm256_and_si256(t, v)
                                    : _mm256_andnot_si256(v, t);
        if (_mm256_testz_si256(t, t)) break;
      }
      acc = _mm256_or_si256(acc, t);
      if (_mm256_testc_si256(acc, ones)) break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), acc);
  }
  if (w < num_words) eval_sop_scalar_range(sop, fanin, w, num_words, out);
}

// ---------------------------------------------------------------------------
// AVX-512F kernel: 8 words (512 pattern bits) per step, with a 4-word
// 256-bit step on the tail so the Table-1-sized 4-word rows (the engine's
// default per-fault geometry) still run vectorized instead of degrading to
// the scalar tail. Every AVX-512F host has AVX2, and the target attribute
// requests both so the 256-bit intrinsics are available here.
//
// GCC's _mm512_andnot_epi64 lowers to the masked builtin with a
// deliberately undefined pass-through operand (`__Y = __Y` in the header);
// the all-ones mask means it is never read, but -Wmaybe-uninitialized
// cannot see that.
// ---------------------------------------------------------------------------

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f,avx2"))) void eval_sop_avx512(
    const Sop& sop, const uint64_t* const* fanin, int num_words,
    uint64_t* out) {
  const int nv = sop.num_vars();
  const __m512i ones = _mm512_set1_epi64(-1);
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    __m512i acc = _mm512_setzero_si512();
    for (const Cube& c : sop.cubes()) {
      __m512i t = ones;
      for (int k = 0; k < nv; ++k) {
        LitCode code = c.get(k);
        if (code == LitCode::kFree) continue;
        __m512i v = _mm512_loadu_si512(fanin[k] + w);
        t = (code == LitCode::kPos) ? _mm512_and_epi64(t, v)
                                    : _mm512_andnot_epi64(v, t);
        if (_mm512_test_epi64_mask(t, t) == 0) break;
      }
      acc = _mm512_or_epi64(acc, t);
      if (_mm512_cmpneq_epu64_mask(acc, ones) == 0) break;
    }
    _mm512_storeu_si512(out + w, acc);
  }
  if (w + 4 <= num_words) {
    const __m256i ones256 = _mm256_set1_epi64x(-1);
    __m256i acc = _mm256_setzero_si256();
    for (const Cube& c : sop.cubes()) {
      __m256i t = ones256;
      for (int k = 0; k < nv; ++k) {
        LitCode code = c.get(k);
        if (code == LitCode::kFree) continue;
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(fanin[k] + w));
        t = (code == LitCode::kPos) ? _mm256_and_si256(t, v)
                                    : _mm256_andnot_si256(v, t);
        if (_mm256_testz_si256(t, t)) break;
      }
      acc = _mm256_or_si256(acc, t);
      if (_mm256_testc_si256(acc, ones256)) break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), acc);
    w += 4;
  }
  if (w < num_words) eval_sop_scalar_range(sop, fanin, w, num_words, out);
}

#pragma GCC diagnostic pop

#endif  // APX_SIMD_X86

// ---------------------------------------------------------------------------
// Popcount-reduce / row-combine kernels. Scalar is the reference; the
// vector tiers compute identical integers because popcounting is exact —
// they count full words at lane width and then subtract the final word's
// padding contribution (bits outside tail_mask), so no rounding, ordering,
// or saturation can diverge between tiers.
// ---------------------------------------------------------------------------

int64_t popcount_words_scalar(const uint64_t* a, int n, uint64_t tail) {
  if (n <= 0) return 0;
  int64_t c = 0;
  for (int w = 0; w + 1 < n; ++w) c += std::popcount(a[w]);
  return c + std::popcount(a[n - 1] & tail);
}

int64_t popcount_and_scalar(const uint64_t* a, const uint64_t* b, int n,
                            uint64_t tail) {
  if (n <= 0) return 0;
  int64_t c = 0;
  for (int w = 0; w + 1 < n; ++w) c += std::popcount(a[w] & b[w]);
  return c + std::popcount(a[n - 1] & b[n - 1] & tail);
}

int64_t popcount_xor_and_scalar(const uint64_t* a, const uint64_t* b,
                                const uint64_t* c, int n, uint64_t tail) {
  if (n <= 0) return 0;
  int64_t count = 0;
  for (int w = 0; w + 1 < n; ++w) count += std::popcount((a[w] ^ b[w]) & c[w]);
  return count + std::popcount((a[n - 1] ^ b[n - 1]) & c[n - 1] & tail);
}

int64_t popcount_andnot_scalar(const uint64_t* a, const uint64_t* b, int n,
                               uint64_t tail) {
  if (n <= 0) return 0;
  int64_t c = 0;
  for (int w = 0; w + 1 < n; ++w) c += std::popcount(~a[w] & b[w]);
  return c + std::popcount(~a[n - 1] & b[n - 1] & tail);
}

void accumulate_xor_or_scalar(uint64_t* acc, const uint64_t* a,
                              const uint64_t* b, int n) {
  for (int w = 0; w < n; ++w) acc[w] |= a[w] ^ b[w];
}

bool rows_differ_scalar(const uint64_t* a, const uint64_t* b, int num_words,
                        uint64_t tail_mask) {
  if (num_words <= 0) return false;
  uint64_t diff = 0;
  for (int i = 0; i + 1 < num_words; ++i) diff |= a[i] ^ b[i];
  diff |= (a[num_words - 1] ^ b[num_words - 1]) & tail_mask;
  return diff != 0;
}

#if APX_SIMD_X86

// AVX2 has no vector popcount instruction; the standard pshufb nibble-LUT
// + psadbw reduction counts four words per step (exact byte counts summed
// into per-lane u64 totals). AVX-512F alone adds none of the byte ops this
// needs (VPOPCNTDQ / AVX512BW are separate extensions the dispatch tier
// does not require), so the avx512 tier routes the popcount reductions to
// this 256-bit path and keeps its 512-bit lanes for the combine/compare
// kernels below.

__attribute__((target("avx2"))) inline __m256i popcnt256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline int64_t hsum256(__m256i acc) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return static_cast<int64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

__attribute__((target("avx2"))) int64_t popcount_words_avx2(const uint64_t* a,
                                                            int n,
                                                            uint64_t tail) {
  if (n <= 0) return 0;
  __m256i acc = _mm256_setzero_si256();
  int w = 0;
  for (; w + 4 <= n; w += 4) {
    acc = _mm256_add_epi64(
        acc,
        popcnt256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w))));
  }
  int64_t c = hsum256(acc);
  for (; w < n; ++w) c += std::popcount(a[w]);
  return c - std::popcount(a[n - 1] & ~tail);
}

__attribute__((target("avx2"))) int64_t popcount_and_avx2(const uint64_t* a,
                                                          const uint64_t* b,
                                                          int n,
                                                          uint64_t tail) {
  if (n <= 0) return 0;
  __m256i acc = _mm256_setzero_si256();
  int w = 0;
  for (; w + 4 <= n; w += 4) {
    __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, popcnt256(v));
  }
  int64_t c = hsum256(acc);
  for (; w < n; ++w) c += std::popcount(a[w] & b[w]);
  return c - std::popcount(a[n - 1] & b[n - 1] & ~tail);
}

__attribute__((target("avx2"))) int64_t popcount_xor_and_avx2(
    const uint64_t* a, const uint64_t* b, const uint64_t* c, int n,
    uint64_t tail) {
  if (n <= 0) return 0;
  __m256i acc = _mm256_setzero_si256();
  int w = 0;
  for (; w + 4 <= n; w += 4) {
    __m256i v = _mm256_and_si256(
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w))),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + w)));
    acc = _mm256_add_epi64(acc, popcnt256(v));
  }
  int64_t count = hsum256(acc);
  for (; w < n; ++w) count += std::popcount((a[w] ^ b[w]) & c[w]);
  return count - std::popcount((a[n - 1] ^ b[n - 1]) & c[n - 1] & ~tail);
}

__attribute__((target("avx2"))) int64_t popcount_andnot_avx2(
    const uint64_t* a, const uint64_t* b, int n, uint64_t tail) {
  if (n <= 0) return 0;
  __m256i acc = _mm256_setzero_si256();
  int w = 0;
  for (; w + 4 <= n; w += 4) {
    __m256i v = _mm256_andnot_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, popcnt256(v));
  }
  int64_t c = hsum256(acc);
  for (; w < n; ++w) c += std::popcount(~a[w] & b[w]);
  return c - std::popcount(~a[n - 1] & b[n - 1] & ~tail);
}

__attribute__((target("avx2"))) void accumulate_xor_or_avx2(uint64_t* acc,
                                                            const uint64_t* a,
                                                            const uint64_t* b,
                                                            int n) {
  int w = 0;
  for (; w + 4 <= n; w += 4) {
    __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    __m256i* out = reinterpret_cast<__m256i*>(acc + w);
    _mm256_storeu_si256(out, _mm256_or_si256(_mm256_loadu_si256(out), v));
  }
  for (; w < n; ++w) acc[w] |= a[w] ^ b[w];
}

__attribute__((target("avx2"))) bool rows_differ_avx2(const uint64_t* a,
                                                      const uint64_t* b,
                                                      int num_words,
                                                      uint64_t tail_mask) {
  if (num_words <= 0) return false;
  const int full = num_words - 1;  // the final word needs the mask
  int w = 0;
  for (; w + 4 <= full; w += 4) {
    __m256i d = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    if (!_mm256_testz_si256(d, d)) return true;
  }
  uint64_t diff = 0;
  for (; w < full; ++w) diff |= a[w] ^ b[w];
  diff |= (a[full] ^ b[full]) & tail_mask;
  return diff != 0;
}

__attribute__((target("avx512f"))) void accumulate_xor_or_avx512(
    uint64_t* acc, const uint64_t* a, const uint64_t* b, int n) {
  int w = 0;
  for (; w + 8 <= n; w += 8) {
    __m512i v = _mm512_xor_epi64(_mm512_loadu_si512(a + w),
                                 _mm512_loadu_si512(b + w));
    _mm512_storeu_si512(acc + w,
                        _mm512_or_epi64(_mm512_loadu_si512(acc + w), v));
  }
  for (; w < n; ++w) acc[w] |= a[w] ^ b[w];
}

__attribute__((target("avx512f"))) bool rows_differ_avx512(const uint64_t* a,
                                                           const uint64_t* b,
                                                           int num_words,
                                                           uint64_t tail_mask) {
  if (num_words <= 0) return false;
  const int full = num_words - 1;
  int w = 0;
  for (; w + 8 <= full; w += 8) {
    __m512i d = _mm512_xor_epi64(_mm512_loadu_si512(a + w),
                                 _mm512_loadu_si512(b + w));
    if (_mm512_test_epi64_mask(d, d) != 0) return true;
  }
  uint64_t diff = 0;
  for (; w < full; ++w) diff |= a[w] ^ b[w];
  diff |= (a[full] ^ b[full]) & tail_mask;
  return diff != 0;
}

#endif  // APX_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch. The active tier is resolved once (CPUID + APX_SIMD) and cached
// in an atomic so concurrently running workers read a settled value;
// simd::set_tier (tests, bench per-width rows) swaps it between runs.
// ---------------------------------------------------------------------------

using EvalFn = void (*)(const Sop&, const uint64_t* const*, int, uint64_t*);
using RowsDifferFn = bool (*)(const uint64_t*, const uint64_t*, int, uint64_t);
using Pop1Fn = int64_t (*)(const uint64_t*, int, uint64_t);
using Pop2Fn = int64_t (*)(const uint64_t*, const uint64_t*, int, uint64_t);
using Pop3Fn = int64_t (*)(const uint64_t*, const uint64_t*, const uint64_t*,
                           int, uint64_t);
using Acc2Fn = void (*)(uint64_t*, const uint64_t*, const uint64_t*, int);

struct Dispatch {
  simd::Tier tier;
  EvalFn eval;
  RowsDifferFn rows_differ;
  Pop1Fn popcount_words;
  Pop2Fn popcount_and;
  Pop3Fn popcount_xor_and;
  Pop2Fn popcount_andnot;
  Acc2Fn accumulate_xor_or;
};

const Dispatch kDispatchTable[3] = {
    {simd::Tier::kScalar, &eval_sop_scalar, &rows_differ_scalar,
     &popcount_words_scalar, &popcount_and_scalar, &popcount_xor_and_scalar,
     &popcount_andnot_scalar, &accumulate_xor_or_scalar},
#if APX_SIMD_X86
    {simd::Tier::kAvx2, &eval_sop_avx2, &rows_differ_avx2,
     &popcount_words_avx2, &popcount_and_avx2, &popcount_xor_and_avx2,
     &popcount_andnot_avx2, &accumulate_xor_or_avx2},
    // The avx512 tier reuses the 256-bit popcount path (AVX-512F alone has
    // no byte shuffle/popcount; see popcnt256) but runs 512-bit lanes for
    // the combine/compare kernels.
    {simd::Tier::kAvx512, &eval_sop_avx512, &rows_differ_avx512,
     &popcount_words_avx2, &popcount_and_avx2, &popcount_xor_and_avx2,
     &popcount_andnot_avx2, &accumulate_xor_or_avx512},
#else
    {simd::Tier::kAvx2, &eval_sop_scalar, &rows_differ_scalar,
     &popcount_words_scalar, &popcount_and_scalar, &popcount_xor_and_scalar,
     &popcount_andnot_scalar, &accumulate_xor_or_scalar},
    {simd::Tier::kAvx512, &eval_sop_scalar, &rows_differ_scalar,
     &popcount_words_scalar, &popcount_and_scalar, &popcount_xor_and_scalar,
     &popcount_andnot_scalar, &accumulate_xor_or_scalar},
#endif
};

std::atomic<const Dispatch*> g_active{nullptr};
std::string g_policy = "auto";

simd::Tier clamp_to_supported(simd::Tier requested) {
  simd::Tier t = requested;
  while (t != simd::Tier::kScalar && !simd::tier_supported(t)) {
    t = static_cast<simd::Tier>(static_cast<int>(t) - 1);
  }
  return t;
}

const Dispatch* resolve_from_env() {
  const char* env = std::getenv("APX_SIMD");
  std::string req = env != nullptr ? env : "auto";
  simd::Tier requested;
  if (req.empty() || req == "auto") {
    requested = simd::best_supported_tier();
    g_policy = "auto";
  } else if (req == "scalar") {
    requested = simd::Tier::kScalar;
    g_policy = req;
  } else if (req == "avx2") {
    requested = simd::Tier::kAvx2;
    g_policy = req;
  } else if (req == "avx512") {
    requested = simd::Tier::kAvx512;
    g_policy = req;
  } else {
    throw std::invalid_argument(
        "APX_SIMD must be scalar, avx2, avx512, or auto (got \"" + req +
        "\")");
  }
  simd::Tier actual = clamp_to_supported(requested);
  if (actual != requested) {
    g_policy = std::string(simd::tier_name(requested)) + "->" +
               simd::tier_name(actual) + "(unsupported)";
  }
  return &kDispatchTable[static_cast<int>(actual)];
}

const Dispatch& active_dispatch() {
  const Dispatch* d = g_active.load(std::memory_order_acquire);
  if (d == nullptr) {
    // Benign race: concurrent first calls resolve to the same table entry.
    d = resolve_from_env();
    g_active.store(d, std::memory_order_release);
  }
  return *d;
}

}  // namespace

namespace simd {

bool tier_supported(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
#if APX_SIMD_X86
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Tier::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
#else
    case Tier::kAvx2:
    case Tier::kAvx512:
      return false;
#endif
  }
  return false;
}

Tier best_supported_tier() {
  if (tier_supported(Tier::kAvx512)) return Tier::kAvx512;
  if (tier_supported(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

Tier active_tier() { return active_dispatch().tier; }

int width_bits(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return 64;
    case Tier::kAvx2:
      return 256;
    case Tier::kAvx512:
      return 512;
  }
  return 64;
}

int width_bits() { return width_bits(active_tier()); }

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "scalar";
}

const char* policy() {
  active_dispatch();  // force resolution so the string is settled
  return g_policy.c_str();
}

void set_tier(Tier tier) {
  if (!tier_supported(tier)) {
    throw std::invalid_argument(std::string("simd::set_tier: host cannot ") +
                                "execute tier " + tier_name(tier));
  }
  active_dispatch();  // settle the policy string first
  g_policy = std::string("forced:") + tier_name(tier);
  g_active.store(&kDispatchTable[static_cast<int>(tier)],
                 std::memory_order_release);
}

}  // namespace simd

void eval_sop_words(const Sop& sop, const uint64_t* const* fanin,
                    int num_words, uint64_t* out) {
  active_dispatch().eval(sop, fanin, num_words, out);
}

bool rows_differ(const uint64_t* a, const uint64_t* b, int num_words,
                 uint64_t tail_mask) {
  return active_dispatch().rows_differ(a, b, num_words, tail_mask);
}

int64_t popcount_words(const uint64_t* a, int num_words, uint64_t tail_mask) {
  return active_dispatch().popcount_words(a, num_words, tail_mask);
}

int64_t popcount_and(const uint64_t* a, const uint64_t* b, int num_words,
                     uint64_t tail_mask) {
  return active_dispatch().popcount_and(a, b, num_words, tail_mask);
}

int64_t popcount_xor_and(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, int num_words,
                         uint64_t tail_mask) {
  return active_dispatch().popcount_xor_and(a, b, c, num_words, tail_mask);
}

int64_t popcount_andnot(const uint64_t* a, const uint64_t* b, int num_words,
                        uint64_t tail_mask) {
  return active_dispatch().popcount_andnot(a, b, num_words, tail_mask);
}

void accumulate_xor_or(uint64_t* acc, const uint64_t* a, const uint64_t* b,
                       int num_words) {
  active_dispatch().accumulate_xor_or(acc, a, b, num_words);
}

}  // namespace apx
