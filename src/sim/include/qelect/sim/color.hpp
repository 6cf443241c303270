// Qualitative colors: distinct but mutually incomparable agent labels.
//
// This type is the heart of the qualitative model (Section 1.2): "for any
// x, y in C it can only be determined whether they are equal or different".
// Color therefore exposes equality and nothing else -- no operator<, no
// hash, no accessor to the underlying token from protocol code.  Protocols
// that need to organize colors build their *own* encoding (e.g. first-seen
// indices into a vector<Color>), exactly as the paper allows ("it is able
// to distinguish colors and to produce its own encoding of these colors").
//
// The internal token is a per-run randomized 64-bit value drawn from a
// seeded universe.  Any protocol that smuggles an ordering out of the
// representation becomes color-seed-dependent; the property tests run every
// election under many color seeds and require identical outcomes, which
// turns such cheating into a test failure.
#pragma once

#include <cstdint>
#include <vector>

namespace qelect::sim {

class ColorUniverse;

/// An opaque qualitative color.  Equality-comparable only.
class Color {
 public:
  /// Default-constructed colors compare equal to each other and to no color
  /// minted by a universe; they mean "no color" in optional-like contexts.
  Color() = default;

  bool operator==(const Color&) const = default;
  bool operator!=(const Color&) const = default;

 private:
  friend class ColorUniverse;
  explicit Color(std::uint64_t token) : token_(token) {}
  std::uint64_t token_ = 0;
};

/// Mints distinct colors with randomized internal tokens.
class ColorUniverse {
 public:
  explicit ColorUniverse(std::uint64_t seed);

  /// A fresh color, distinct from every color previously minted here.
  Color mint();

  /// Overwrites `out` with the first `count` colors ColorUniverse(seed)
  /// mints, reusing its capacity.
  static void mint_many(std::uint64_t seed, std::size_t count,
                        std::vector<Color>& out);

 private:
  /// The color after `state` that `taken` does not hold; advances `state`.
  static Color next(std::uint64_t& state, const std::vector<Color>& taken);

  std::uint64_t state_;
  std::vector<Color> minted_;  // for distinctness enforcement
};

/// The one sanctioned way to index colors: a growable first-seen registry.
/// Protocol code uses this to build "its own encoding" of the colors it has
/// met; indices are meaningful only to the agent that built the registry.
class ColorIndex {
 public:
  /// Index of `c`, registering it if new (first-seen order).
  std::size_t index_of(const Color& c);

  /// Index if already registered.
  bool contains(const Color& c) const;

  std::size_t size() const { return seen_.size(); }
  const Color& at(std::size_t index) const { return seen_.at(index); }
  const std::vector<Color>& all() const { return seen_; }

 private:
  std::vector<Color> seen_;
};

}  // namespace qelect::sim
