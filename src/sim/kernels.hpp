// Runtime-dispatched SIMD kernels for bit-parallel SOP evaluation.
//
// The simulation substrate's single hot operation is "evaluate one node's
// SOP over a row of pattern words". Three kernels implement it with
// identical bitwise semantics at different lane widths:
//
//   scalar  one 64-bit word per step (the portable baseline)
//   avx2    four words (256 bits) per step
//   avx512  eight words (512 bits) per step
//
// The active kernel is selected once at startup from CPUID
// (__builtin_cpu_supports), overridable with APX_SIMD=scalar|avx2|avx512
// (or auto). Requesting an unsupported tier falls back to the widest
// supported one below it; simd::policy() records the request so bench
// artifacts can tell a genuine avx512 run from a clamped one. Because every
// kernel computes the same pure bitwise function word by word (lane-width
// strides over full words, scalar on the sub-lane tail), results are
// byte-identical across tiers — the bit-identity guarantee the engine
// already gives for thread counts extends to SIMD widths.
#pragma once

#include <cstdint>

#include "sop/sop.hpp"

namespace apx {

namespace simd {

enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// True when the host CPU can execute this tier's kernel.
bool tier_supported(Tier tier);

/// Widest tier the host supports.
Tier best_supported_tier();

/// The tier the dispatcher currently routes to (resolved once from
/// APX_SIMD/CPUID on first use).
Tier active_tier();

/// Lane width of a tier / of the active tier, in pattern bits per step.
int width_bits(Tier tier);
int width_bits();

const char* tier_name(Tier tier);

/// The resolved dispatch policy, e.g. "auto", "scalar", or
/// "avx512->avx2(unsupported)" when a requested tier was clamped.
const char* policy();

/// Test hook: force a specific tier at runtime (bypassing APX_SIMD).
/// Throws std::invalid_argument if the host cannot execute it. Not
/// thread-safe against concurrently running kernels — call between
/// simulations only.
void set_tier(Tier tier);

}  // namespace simd

/// Evaluates a node's SOP bit-parallel over `num_words` words through the
/// active SIMD kernel. `fanin[k]` points at the word row of SOP variable k.
/// Shared evaluation kernel of Simulator and FaultSimEngine. Exactly the
/// words [0, num_words) are written; callers keeping padded rows rely on
/// padding words never being touched.
void eval_sop_words(const Sop& sop, const uint64_t* const* fanin,
                    int num_words, uint64_t* out);

/// True when rows a and b differ on any *valid* pattern bit: all bits of
/// words [0, num_words-1), and only the tail_mask bits of the final word.
/// Pass ~0ULL when every pattern of the final word is valid. Dispatched
/// like eval_sop_words; every tier returns the same bool.
bool rows_differ(const uint64_t* a, const uint64_t* b, int num_words,
                 uint64_t tail_mask);

// ---------------------------------------------------------------------------
// Masked popcount-reduce kernels: the campaign visitors' accounting loops
// (CED coverage, per-output error rates, rank histograms, observability,
// masking, approximation percentages) all reduce value rows to integer
// bit counts. Each kernel computes an exact integer sum — popcount over
// full words at vector width, with the final word's padding bits (those
// outside tail_mask) excluded — so every tier returns the identical
// integer and the bit-identity contract extends to the accounting side
// for free. Pass ~0ULL as tail_mask when every bit of the final word is
// valid.
// ---------------------------------------------------------------------------

/// popcount of row a over the valid bits.
int64_t popcount_words(const uint64_t* a, int num_words, uint64_t tail_mask);

/// popcount of (a & b) over the valid bits.
int64_t popcount_and(const uint64_t* a, const uint64_t* b, int num_words,
                     uint64_t tail_mask);

/// popcount of ((a ^ b) & c) over the valid bits — e.g. "erroneous AND
/// golden/faulty checker disagreement" style reductions.
int64_t popcount_xor_and(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, int num_words,
                         uint64_t tail_mask);

/// popcount of (~a & b) over the valid bits (directional error counts:
/// golden 0 / faulty 1 and vice versa).
int64_t popcount_andnot(const uint64_t* a, const uint64_t* b, int num_words,
                        uint64_t tail_mask);

/// acc[w] |= a[w] ^ b[w] for all words (row-combine step used to fold a
/// set of outputs into one "any output differs" row before counting).
void accumulate_xor_or(uint64_t* acc, const uint64_t* a, const uint64_t* b,
                       int num_words);

}  // namespace apx
