#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace iosim::sim {
namespace {

TEST(SplitMix64, DeterministicStream) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedResetsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(3.0, 7.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 7.0);
  }
}

class RngBelowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelowTest, StaysBelowBound) {
  const std::uint64_t n = GetParam();
  Rng r(11);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(r.below(n), n);
}

TEST_P(RngBelowTest, HitsAllSmallValues) {
  const std::uint64_t n = GetParam();
  if (n > 64) GTEST_SKIP() << "coverage check only for small bounds";
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(r.below(n));
  EXPECT_EQ(seen.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelowTest,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 16ULL, 17ULL, 1000ULL,
                                           1ULL << 40));

TEST(Rng, RangeInclusive) {
  Rng r(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMean) {
  Rng r(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng r(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng r(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(DeriveRunSeed, DeterministicAndDistinct) {
  // Same (base, index) -> same seed; distinct indices -> distinct seeds.
  EXPECT_EQ(derive_run_seed(1, 0), derive_run_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(derive_run_seed(1, i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(DeriveRunSeed, AdjacentBasesDoNotShareRepeatStreams) {
  // The whole point of the double mix: with naive `base + index`, base seeds
  // 1 and 2 with k repeats share k-1 runs. Derived seed sets must be disjoint.
  constexpr std::uint64_t kRepeats = 64;
  std::set<std::uint64_t> a, both;
  for (std::uint64_t i = 0; i < kRepeats; ++i) a.insert(derive_run_seed(1, i));
  for (std::uint64_t i = 0; i < kRepeats; ++i) {
    both.insert(derive_run_seed(2, i));
    // And definitely not the exact overlap `base+index` would produce.
    EXPECT_EQ(a.count(derive_run_seed(2, i)), 0u) << "i=" << i;
  }
  for (std::uint64_t s : a) both.insert(s);
  EXPECT_EQ(both.size(), 2 * kRepeats);
}

TEST(DeriveRunSeed, AdjacentSeedsGiveUncorrelatedFirstDraws) {
  // First uniform draw from Rngs seeded at consecutive run indices should
  // look independent: roughly half of adjacent pairs ordered either way and
  // no near-duplicates.
  constexpr int kN = 512;
  std::vector<double> first;
  for (int i = 0; i < kN; ++i) {
    Rng r(derive_run_seed(7, static_cast<std::uint64_t>(i)));
    first.push_back(r.uniform(0.0, 1.0));
  }
  int ascending = 0;
  for (int i = 0; i + 1 < kN; ++i) {
    EXPECT_GT(std::abs(first[i + 1] - first[i]), 1e-9) << "i=" << i;
    if (first[i + 1] > first[i]) ++ascending;
  }
  // A drifting (correlated) seed sequence would push this toward 0 or kN.
  EXPECT_GT(ascending, kN / 2 - kN / 8);
  EXPECT_LT(ascending, kN / 2 + kN / 8);
  // Mean of the first draws should be near 0.5.
  double sum = 0.0;
  for (double x : first) sum += x;
  EXPECT_NEAR(sum / kN, 0.5, 0.05);
}

}  // namespace
}  // namespace iosim::sim
