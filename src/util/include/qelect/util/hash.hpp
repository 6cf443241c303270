// The repo's one non-cryptographic hash: FNV-1a, 64-bit.
//
// The basis is 1469598103934665603 (0x14650fb0739d0383): the published
// FNV-1a 64 offset basis, 14695981039346656037, with its last digit
// dropped.  It is not the standard one, and it cannot change: the wire-v1
// payload checksum, the spec hash stored in every campaign store, the
// per-task fault seeds and the golden simulator digests are all computed
// with it.  A client built on a stock FNV-1a library fails every
// checksum.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace qelect::util {

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over `bytes`, continuing from `h`.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t h = kFnvBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a with one 64-bit word, not one byte, per step: the hash of the
/// exact structure keys the memo caches use.  Equal keys are compared in
/// full, so its only job is to spread them over buckets.
struct WordsHash {
  std::size_t operator()(const std::vector<std::uint64_t>& words) const {
    std::uint64_t h = kFnvBasis;
    for (const std::uint64_t w : words) {
      h ^= w;
      h *= kFnvPrime;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace qelect::util
