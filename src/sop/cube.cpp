#include "sop/cube.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace apx {
namespace {

// Repeating 01 / 10 masks used to detect empty (00) positions in a word.
constexpr uint64_t kLoBits = 0x5555555555555555ULL;  // low bit of each pair
constexpr uint64_t kHiBits = 0xAAAAAAAAAAAAAAAAULL;  // high bit of each pair

int words_needed(int num_vars) { return (num_vars + 31) / 32; }

// Mask selecting only the pairs belonging to real variables in the last word.
uint64_t tail_mask(int num_vars) {
  int used = num_vars % 32;
  if (used == 0) return ~0ULL;
  return (~0ULL) >> (64 - 2 * used);
}

}  // namespace

Cube::Cube(int num_vars) : num_vars_(num_vars) {
  assert(num_vars >= 0);
  words_.assign(words_needed(num_vars), ~0ULL);
  if (!words_.empty()) words_.back() &= tail_mask(num_vars);
}

Cube Cube::full(int num_vars) { return Cube(num_vars); }

Cube Cube::minterm(int num_vars, uint64_t minterm) {
  assert(num_vars <= 64);
  Cube c(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    c.set(v, ((minterm >> v) & 1) ? LitCode::kPos : LitCode::kNeg);
  }
  return c;
}

std::optional<Cube> Cube::parse(const std::string& text) {
  Cube c(static_cast<int>(text.size()));
  for (size_t i = 0; i < text.size(); ++i) {
    switch (text[i]) {
      case '0':
        c.set(static_cast<int>(i), LitCode::kNeg);
        break;
      case '1':
        c.set(static_cast<int>(i), LitCode::kPos);
        break;
      case '-':
      case '2':
        break;  // already free
      default:
        return std::nullopt;
    }
  }
  return c;
}

void Cube::set(int var, LitCode code) {
  assert(var >= 0 && var < num_vars_);
  uint64_t& w = words_[word_of(var)];
  w &= ~(3ULL << shift_of(var));
  w |= static_cast<uint64_t>(code) << shift_of(var);
}

bool Cube::is_empty() const {
  if (num_vars_ == 0) return false;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t w = words_[i];
    uint64_t mask = (i + 1 == words_.size()) ? tail_mask(num_vars_) : ~0ULL;
    // Fold each pair's bits into the pair's high bit; a pair is 00 (empty
    // position) iff the folded bit is 0.
    uint64_t occupied = ((w & kLoBits) << 1) | (w & kHiBits);
    if ((~occupied & kHiBits & mask) != 0) return true;
  }
  return false;
}

bool Cube::is_full() const {
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t mask = (i + 1 == words_.size()) ? tail_mask(num_vars_) : ~0ULL;
    if ((words_[i] & mask) != mask) return false;
  }
  return true;
}

bool Cube::contains(const Cube& other) const {
  assert(num_vars_ == other.num_vars_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((other.words_[i] & ~words_[i]) != 0) return false;
  }
  return true;
}

std::optional<Cube> Cube::intersect(const Cube& other) const {
  assert(num_vars_ == other.num_vars_);
  Cube result(num_vars_);
  for (size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] & other.words_[i];
  }
  if (result.is_empty()) return std::nullopt;
  return result;
}

int Cube::distance(const Cube& other) const {
  assert(num_vars_ == other.num_vars_);
  int dist = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t w = words_[i] & other.words_[i];
    // Count pairs that became 00.
    uint64_t occupied = ((w & kLoBits) << 1) | (w & kHiBits);
    uint64_t mask = (i + 1 == words_.size()) ? tail_mask(num_vars_) : ~0ULL;
    dist += std::popcount(~occupied & kHiBits & mask);
  }
  return dist;
}

int Cube::literal_count() const {
  int bound = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t w = words_[i];
    uint64_t mask = (i + 1 == words_.size()) ? tail_mask(num_vars_) : ~0ULL;
    // A position is bound iff exactly one of its two bits is set.
    uint64_t one_bit = ((w & kLoBits) << 1) ^ (w & kHiBits);
    bound += std::popcount(one_bit & mask);
  }
  return bound;
}

double Cube::space_fraction() const {
  if (is_empty()) return 0.0;
  return std::ldexp(1.0, -literal_count());
}

bool Cube::covers_minterm(uint64_t minterm) const {
  assert(num_vars_ <= 64);
  for (int v = 0; v < num_vars_; ++v) {
    LitCode code = get(v);
    bool bit = (minterm >> v) & 1;
    if (code == LitCode::kEmpty) return false;
    if (code == LitCode::kNeg && bit) return false;
    if (code == LitCode::kPos && !bit) return false;
  }
  return true;
}

std::optional<Cube> Cube::cofactor(int var, bool value) const {
  LitCode code = get(var);
  if (code == LitCode::kEmpty) return std::nullopt;
  if (code == (value ? LitCode::kNeg : LitCode::kPos)) return std::nullopt;
  Cube result = *this;
  result.set(var, LitCode::kFree);
  return result;
}

Cube Cube::without_var(int var) const {
  Cube result = *this;
  result.set(var, LitCode::kFree);
  return result;
}

std::string Cube::to_string() const {
  std::string s;
  s.reserve(num_vars_);
  for (int v = 0; v < num_vars_; ++v) {
    switch (get(v)) {
      case LitCode::kEmpty:
        s.push_back('E');
        break;
      case LitCode::kNeg:
        s.push_back('0');
        break;
      case LitCode::kPos:
        s.push_back('1');
        break;
      case LitCode::kFree:
        s.push_back('-');
        break;
    }
  }
  return s;
}

size_t Cube::hash() const {
  size_t h = static_cast<size_t>(num_vars_) * 0x9E3779B97F4A7C15ULL;
  for (uint64_t w : words_) {
    h ^= w + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool Cube::operator<(const Cube& other) const {
  if (num_vars_ != other.num_vars_) return num_vars_ < other.num_vars_;
  return words_ < other.words_;
}

}  // namespace apx
