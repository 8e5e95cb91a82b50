#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "gtest/gtest.h"

namespace dcs {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 60);
}

TEST(RngTest, CopyForksTheStream) {
  Rng a(7);
  a.Next();
  Rng b = a;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntBoundOneIsAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, UniformInRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMean) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, BinomialSmallNExactRange) {
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.Binomial(10, 0.4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 10);
  }
}

TEST(RngTest, BinomialMeanMatches) {
  Rng rng(31);
  // Large n exercises both the inversion and normal-approximation paths.
  for (const auto& [n, p] : std::vector<std::pair<int64_t, double>>{
           {50, 0.3}, {500, 0.02}, {100000, 0.05}}) {
    double sum = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
      sum += static_cast<double>(rng.Binomial(n, p));
    }
    const double mean = sum / trials;
    const double expected = static_cast<double>(n) * p;
    const double tolerance =
        5 * std::sqrt(expected * (1 - p) / trials) + 0.5;
    EXPECT_NEAR(mean, expected, tolerance) << "n=" << n << " p=" << p;
  }
}

TEST(RngTest, BinomialDegenerateCases) {
  Rng rng(37);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0);
  EXPECT_EQ(rng.Binomial(100, 0.0), 0);
  EXPECT_EQ(rng.Binomial(100, 1.0), 100);
}

TEST(RngTest, NormalMoments) {
  Rng rng(41);
  double sum = 0;
  double sum_sq = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / trials, 1.0, 0.05);
}

TEST(RngTest, RandomSignIsBalanced) {
  Rng rng(43);
  int positive = 0;
  for (int i = 0; i < 10000; ++i) positive += rng.RandomSign() > 0 ? 1 : 0;
  EXPECT_NEAR(positive / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(47);
  std::vector<int> values = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

TEST(RngTest, RandomSubsetProperties) {
  Rng rng(53);
  const std::vector<int> subset = rng.RandomSubset(20, 7);
  EXPECT_EQ(subset.size(), 7u);
  EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
  const std::set<int> unique(subset.begin(), subset.end());
  EXPECT_EQ(unique.size(), 7u);
  for (int v : subset) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(RngTest, RandomSubsetFullAndEmpty) {
  Rng rng(59);
  EXPECT_TRUE(rng.RandomSubset(5, 0).empty());
  const std::vector<int> all = rng.RandomSubset(5, 5);
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, RandomSubsetIsUniformish) {
  Rng rng(61);
  // Element 0 should appear in a 3-of-6 subset about half the time.
  int hits = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    const std::vector<int> subset = rng.RandomSubset(6, 3);
    if (std::find(subset.begin(), subset.end(), 0) != subset.end()) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.5, 0.04);
}

TEST(RngTest, RandomBinaryStringWithWeight) {
  Rng rng(67);
  const std::vector<uint8_t> bits = rng.RandomBinaryStringWithWeight(32, 12);
  EXPECT_EQ(bits.size(), 32u);
  int weight = 0;
  for (uint8_t b : bits) weight += b;
  EXPECT_EQ(weight, 12);
}

TEST(RngTest, RandomSignStringValues) {
  Rng rng(71);
  const std::vector<int8_t> signs = rng.RandomSignString(64);
  EXPECT_EQ(signs.size(), 64u);
  for (int8_t s : signs) {
    EXPECT_TRUE(s == 1 || s == -1);
  }
}

TEST(JitteredBackoffTest, CapsTheExponentialBase) {
  Rng rng(5);
  EXPECT_EQ(JitteredBackoff(1, 0, 64, 0.0, rng), 1);
  EXPECT_EQ(JitteredBackoff(5, 3, 200, 0.0, rng), 40);
  EXPECT_EQ(JitteredBackoff(5, 6, 200, 0.0, rng), 200);
  // Exponents past the width of int64 saturate at the cap.
  EXPECT_EQ(JitteredBackoff(5, 100, 200, 0.0, rng), 200);
  EXPECT_EQ(JitteredBackoff(1, 62, int64_t{1} << 62, 0.0, rng),
            int64_t{1} << 62);
}

TEST(JitteredBackoffTest, DrawsOnlyWhenThereIsAWindow) {
  // No jitter, or a base of one unit, leaves the stream untouched.
  Rng rng(6);
  const Rng before = rng;
  EXPECT_EQ(JitteredBackoff(3, 2, 100, 0.0, rng), 12);
  EXPECT_EQ(JitteredBackoff(1, 0, 100, 0.5, rng), 1);
  Rng copy = before;
  EXPECT_EQ(rng.Next(), copy.Next());
}

TEST(JitteredBackoffTest, EqualJitterStaysInItsWindow) {
  Rng rng(7);
  Rng replay(7);
  for (int exponent = 0; exponent < 12; ++exponent) {
    for (double jitter : {0.5, 0.9, 1.0}) {
      const int64_t b = std::min<int64_t>(int64_t{5} << exponent, 200);
      const int64_t floor = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(b) * (1.0 - jitter)));
      const int64_t drawn = JitteredBackoff(5, exponent, 200, jitter, rng);
      EXPECT_GE(drawn, floor);
      EXPECT_LE(drawn, b);
      EXPECT_EQ(JitteredBackoff(5, exponent, 200, jitter, replay), drawn);
    }
  }
}

}  // namespace
}  // namespace dcs
