#include "qelect/sim/color.hpp"

#include <algorithm>

#include "qelect/util/assert.hpp"
#include "qelect/util/rng.hpp"

namespace qelect::sim {

ColorUniverse::ColorUniverse(std::uint64_t seed) : state_(seed) {}

Color ColorUniverse::next(std::uint64_t& state,
                          const std::vector<Color>& taken) {
  SplitMix64 rng(state);
  Color color;
  do {
    color = Color(rng.next());
    state = color.token_;
  } while (color.token_ == 0 ||
           std::find(taken.begin(), taken.end(), color) != taken.end());
  return color;
}

Color ColorUniverse::mint() {
  minted_.push_back(next(state_, minted_));
  return minted_.back();
}

void ColorUniverse::mint_many(std::uint64_t seed, std::size_t count,
                              std::vector<Color>& out) {
  out.clear();
  for (std::size_t i = 0; i < count; ++i) out.push_back(next(seed, out));
}

std::size_t ColorIndex::index_of(const Color& c) {
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (seen_[i] == c) return i;
  }
  seen_.push_back(c);
  return seen_.size() - 1;
}

bool ColorIndex::contains(const Color& c) const {
  return std::find(seen_.begin(), seen_.end(), c) != seen_.end();
}

}  // namespace qelect::sim
