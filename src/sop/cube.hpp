// Positional-cube-notation cube over a fixed number of Boolean variables.
//
// Each variable occupies 2 bits using the classic espresso encoding:
//   01 -> variable appears complemented  (the cube requires x = 0)
//   10 -> variable appears positive      (the cube requires x = 1)
//   11 -> variable is free / don't care
//   00 -> empty (contradictory) position; the whole cube denotes the
//         empty set as soon as any position is 00
//
// Cubes are the atoms of the two-level (SOP) layer and of the cube-selection
// algorithms in the approximate-logic synthesis core (paper Sec. 2.1.2).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace apx {

/// 2-bit per-variable literal codes (espresso positional cube notation).
enum class LitCode : uint8_t {
  kEmpty = 0,  ///< contradictory position; cube is the empty set
  kNeg = 1,    ///< literal x' (requires x = 0)
  kPos = 2,    ///< literal x  (requires x = 1)
  kFree = 3,   ///< variable unconstrained
};

/// A product term (cube) over `num_vars` Boolean variables.
class Cube {
 public:
  Cube() = default;

  /// Constructs the full (tautology) cube: every variable free.
  explicit Cube(int num_vars);

  /// Full cube over `num_vars` variables (all positions kFree).
  static Cube full(int num_vars);

  /// Minterm cube from the low `num_vars` bits of `minterm`
  /// (bit i gives the polarity of variable i). Requires num_vars <= 64.
  static Cube minterm(int num_vars, uint64_t minterm);

  /// Parses a cube from espresso-style text, e.g. "1-0" (x0 x2' with x1
  /// free). Accepts characters '0', '1', '-'. Returns nullopt on bad input.
  static std::optional<Cube> parse(const std::string& text);

  int num_vars() const { return num_vars_; }

  // Inline: the SOP evaluation kernels read every position of every cube
  // on every word step.
  LitCode get(int var) const {
    assert(var >= 0 && var < num_vars_);
    return static_cast<LitCode>((words_[word_of(var)] >> shift_of(var)) & 3);
  }
  void set(int var, LitCode code);

  /// True if any position is kEmpty (cube denotes the empty set).
  bool is_empty() const;

  /// True if every position is kFree (cube covers the whole space).
  bool is_full() const;

  /// Set-containment: does this cube cover every minterm of `other`?
  /// (Positionwise: other's code bits are a subset of this cube's bits.)
  bool contains(const Cube& other) const;

  /// Positionwise AND. Returns nullopt if the result is empty.
  std::optional<Cube> intersect(const Cube& other) const;

  /// Number of variable positions whose positionwise AND is empty
  /// (the classic cube "distance"; 0 means the cubes intersect).
  int distance(const Cube& other) const;

  /// Number of bound literals (positions that are kPos or kNeg).
  int literal_count() const;

  /// Number of free positions.
  int free_count() const { return num_vars_ - literal_count(); }

  /// Fraction of the 2^num_vars space covered: 2^-literal_count, or 0 if
  /// empty.
  double space_fraction() const;

  /// Does the cube cover the given minterm (bit i of `minterm` = var i)?
  /// Requires num_vars <= 64.
  bool covers_minterm(uint64_t minterm) const;

  /// Cofactor w.r.t. var=value: returns nullopt if the cube does not
  /// intersect that half-space; otherwise the cube with `var` freed.
  std::optional<Cube> cofactor(int var, bool value) const;

  /// Returns a copy with the literal on `var` removed (set to kFree).
  Cube without_var(int var) const;

  /// espresso-style text, e.g. "1-0".
  std::string to_string() const;

  bool operator==(const Cube& other) const {
    return num_vars_ == other.num_vars_ && words_ == other.words_;
  }
  bool operator!=(const Cube& other) const { return !(*this == other); }

  /// Stable hash for use in unordered containers.
  size_t hash() const;

  /// Lexicographic order on the packed representation (for canonical sort).
  bool operator<(const Cube& other) const;

 private:
  static constexpr int kVarsPerWord = 32;  // 2 bits per var

  int word_of(int var) const { return var / kVarsPerWord; }
  int shift_of(int var) const { return 2 * (var % kVarsPerWord); }

  int num_vars_ = 0;
  std::vector<uint64_t> words_;
};

struct CubeHash {
  size_t operator()(const Cube& c) const { return c.hash(); }
};

}  // namespace apx
