// Unit tests for the util module: PRNG determinism and distribution sanity,
// the Euclid dynamics of the reduction subroutines, and table rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "qelect/util/assert.hpp"
#include "qelect/util/math.hpp"
#include "qelect/util/parallel.hpp"
#include "qelect/util/rng.hpp"
#include "qelect/util/table.hpp"

namespace qelect {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01Bounds) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Xoshiro256 rng(11);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, BernoulliExtremes) {
  Xoshiro256 rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, PhiloxMatchesReferenceVectors) {
  // Random123 philox4x32 (10 rounds) known-answer vectors, packed as
  // x[1] << 32 | x[0] per our 64-bit output convention.
  // ctr {0,0,0,0}, key {0,0} -> x = {6627e8d5, e169c58d, ...}.
  EXPECT_EQ(Philox4x32::block(0, 0, 0), 0xe169c58d6627e8d5ull);
  // ctr {243f6a88, 85a308d3, 13198a2e, 03707344}, key {a4093822, 299f31d0}
  // (the pi-digits vector) -> x = {d16cfe09, 94fdcceb, ...}.
  EXPECT_EQ(Philox4x32::block(0x299f31d0a4093822ull, 0x0370734413198a2eull,
                              0x85a308d3243f6a88ull),
            0x94fdccebd16cfe09ull);
}

TEST(Rng, PhiloxPinnedOutputsAreStable) {
  // Regression pins: schedule reconstruction depends on these outputs
  // never changing (a counter draw is Philox(seed, replica).at(i)).
  EXPECT_EQ(Philox4x32::block(42, 7, 0), 0xe55410cc67ee6f2cull);
  EXPECT_EQ(Philox4x32::block(42, 7, 1), 0x600f6196e5dde940ull);
  EXPECT_EQ(Philox4x32::block(42, 8, 0), 0x1384733884d69b0cull);
  EXPECT_EQ(Philox4x32::block(43, 7, 0), 0xbb30ff3e1697d8f1ull);
  const Philox4x32 rng(42, 7);
  EXPECT_EQ(rng.at(0), Philox4x32::block(42, 7, 0));
  EXPECT_EQ(rng.at(1), Philox4x32::block(42, 7, 1));
}

TEST(Rng, PhiloxStreamsAreIndependent) {
  // Distinct (seed, stream) keys and distinct counters must give distinct
  // words; same key + counter must be reproducible from a fresh instance.
  std::set<std::uint64_t> words;
  for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
    for (std::uint64_t stream : {0ull, 1ull, 7ull}) {
      const Philox4x32 rng(seed, stream);
      for (std::uint64_t counter = 0; counter < 16; ++counter) {
        words.insert(rng.at(counter));
        EXPECT_EQ(rng.at(counter), Philox4x32(seed, stream).at(counter));
      }
    }
  }
  EXPECT_EQ(words.size(), 3u * 3u * 16u);
}

TEST(Rng, PhiloxBlockManyMatchesBlock) {
  // block_many must be bit-identical to n scalar block() calls for every
  // length (exercising the vector lanes and the scalar remainder) and for
  // counters with a nonzero high word.
  std::uint64_t out[37];
  for (std::size_t n = 0; n <= 37; ++n) {
    for (const std::uint64_t base :
         {0ull, 1ull, 0xfffffffdull, 0x123456789abcull}) {
      Philox4x32::block_many(42, 7, base, out, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], Philox4x32::block(42, 7, base + i))
            << "n=" << n << " base=" << base << " i=" << i;
      }
    }
  }
  // The known-answer vector must survive the batched path too.
  Philox4x32::block_many(0, 0, 0, out, 4);
  EXPECT_EQ(out[0], 0xe169c58d6627e8d5ull);
}

TEST(Rng, BoundedDrawIsInRangeAndReachesAllValues) {
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 10ull}) {
    std::set<std::uint64_t> seen;
    const Philox4x32 rng(123, 0);
    for (std::uint64_t c = 0; c < 512; ++c) {
      const std::uint64_t v = bounded_draw(rng.at(c), bound);
      ASSERT_LT(v, bound);
      seen.insert(v);
    }
    EXPECT_EQ(seen.size(), bound) << "bound " << bound;
  }
  // The mul-shift reduction is a fixed function of (word, bound).
  EXPECT_EQ(bounded_draw(0, 10), 0u);
  EXPECT_EQ(bounded_draw(0xffffffffffffffffull, 10), 9u);
}

TEST(Math, GcdAll) {
  EXPECT_EQ(gcd_all({12, 18, 24}), 6u);
  EXPECT_EQ(gcd_all({7}), 7u);
  EXPECT_EQ(gcd_all({5, 3}), 1u);
  EXPECT_THROW(gcd_all({}), CheckError);
  EXPECT_THROW(gcd_all({0}), CheckError);
}

// A failed task record stores its check's message, so the site must not
// name the checkout: a check inside a library source reads "at src/...".
TEST(Check, SitesAreRelativeToTheRepository) {
  try {
    gcd_all({});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/util/src/math.cpp:"), std::string::npos)
        << what;
    // The mapping covers this file too, so the build passes the root in.
    EXPECT_EQ(what.find(QELECT_SOURCE_ROOT), std::string::npos) << what;
  }
}

TEST(Math, AgentReduceReachesGcd) {
  for (std::uint64_t a = 1; a <= 30; ++a) {
    for (std::uint64_t b = 1; b <= 30; ++b) {
      const auto traj = agent_reduce_trajectory(a, b);
      const std::uint64_t g = std::gcd(a, b);
      EXPECT_EQ(traj.back().searching, g);
      EXPECT_EQ(traj.back().waiting, g);
      // Every intermediate pair preserves the gcd (Euclid invariant).
      for (const auto& pair : traj) {
        EXPECT_EQ(std::gcd(pair.searching, pair.waiting), g);
        EXPECT_LE(pair.searching, pair.waiting);
      }
    }
  }
}

TEST(Math, AgentReduceFirstStepMatchesPaperRule) {
  // (s, w) -> (s, w-s) when w-s >= s.
  const auto traj = agent_reduce_trajectory(3, 10);
  ASSERT_GE(traj.size(), 2u);
  EXPECT_EQ(traj[0], (ReducePair{3, 10}));
  EXPECT_EQ(traj[1], (ReducePair{3, 7}));
  // (s, w) -> (w-s, s) when w-s < s.
  const auto traj2 = agent_reduce_trajectory(5, 8);
  EXPECT_EQ(traj2[1], (ReducePair{3, 5}));
}

TEST(Math, NodeReduceReachesGcd) {
  for (std::uint64_t a = 1; a <= 25; ++a) {
    for (std::uint64_t b = 1; b <= 25; ++b) {
      const auto traj = node_reduce_trajectory(a, b);
      const std::uint64_t g = std::gcd(a, b);
      EXPECT_EQ(traj.back().searching, g);
      EXPECT_EQ(traj.back().waiting, g);
      for (const auto& pair : traj) {
        EXPECT_EQ(std::gcd(pair.searching, pair.waiting), g);
      }
    }
  }
}

TEST(Math, NodeReduceHalvesEveryTwoRounds) {
  // The proof of Theorem 3.1: Cases 1 and 2 alternate, and the larger side
  // at least halves every two rounds, giving O(log) rounds.
  const auto traj = node_reduce_trajectory(1000, 1);
  EXPECT_LE(traj.size(), 3u);
  const auto traj2 = node_reduce_trajectory(610, 987);  // Fibonacci-ish
  for (std::size_t i = 2; i < traj2.size(); ++i) {
    const auto big = [&](std::size_t j) {
      return std::max(traj2[j].searching, traj2[j].waiting);
    };
    EXPECT_LE(big(i), big(i - 2) - big(i - 2) / 2 + 1);
  }
}

TEST(Math, RemainderInRange) {
  EXPECT_EQ(remainder_in_range(10, 5), 5u);  // exact multiples give m
  EXPECT_EQ(remainder_in_range(11, 5), 1u);
  EXPECT_EQ(remainder_in_range(4, 5), 4u);
  EXPECT_THROW(remainder_in_range(4, 0), CheckError);
}

TEST(Math, FibonacciWorstCaseForEuclid) {
  // gcd(F_n, F_{n+1}) takes ~n subtractive... the *remainder* form takes
  // n-2 steps; the subtractive form used by AGENT-REDUCE coincides with the
  // remainder form on Fibonacci pairs because each quotient is 1.
  EXPECT_EQ(fibonacci(10), 55u);
  EXPECT_EQ(fibonacci(0), 0u);
  EXPECT_EQ(fibonacci(1), 1u);
  const auto traj = agent_reduce_trajectory(fibonacci(14), fibonacci(15));
  EXPECT_EQ(traj.size(), 14u);
}

TEST(Math, Isqrt) {
  for (std::uint64_t n = 0; n < 1000; ++n) {
    const std::uint64_t r = isqrt(n);
    EXPECT_LE(r * r, n);
    EXPECT_GT((r + 1) * (r + 1), n);
  }
}

TEST(Math, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
}

TEST(Table, RendersAlignedColumns) {
  TextTable t("demo", {"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "100"});
  const std::string s = t.render();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_THROW(t.add_row({"only-one-cell"}), CheckError);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 1), "2.0");
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, EmptyAndSingleton) {
  parallel_for(0, [](std::size_t) { FAIL(); }, 4);
  int calls = 0;
  parallel_for(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; },
               8);
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, MapPreservesOrder) {
  const auto out = parallel_map<std::size_t>(
      100, [](std::size_t i) { return i * i; }, 3);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Parallel, DynamicCoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    parallel_for_dynamic(hits.size(), [&](std::size_t i) { ++hits[i]; },
                         threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, DynamicStopsClaimingAfterCancel) {
  CancelSource source;
  std::atomic<int> calls{0};
  parallel_for_dynamic(
      1000,
      [&](std::size_t) {
        if (calls.fetch_add(1) == 10) source.cancel();
      },
      4, source.token());
  // Once cancelled, no new index is claimed: far fewer than 1000 calls.
  EXPECT_GE(calls.load(), 11);
  EXPECT_LT(calls.load(), 1000);
}

TEST(Cancel, DefaultTokenNeverCancels) {
  const CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.throw_if_cancelled());
}

TEST(Cancel, ExplicitCancelTripsEveryToken) {
  CancelSource source;
  const CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.throw_if_cancelled(), Cancelled);
}

TEST(Cancel, DeadlineExpires) {
  const CancelSource none = CancelSource::with_timeout(0);
  EXPECT_FALSE(none.token().cancelled());
  const CancelSource expired = CancelSource::with_timeout(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(expired.token().cancelled());
  const CancelSource generous = CancelSource::with_timeout(3600);
  EXPECT_FALSE(generous.token().cancelled());
}

}  // namespace
}  // namespace qelect
