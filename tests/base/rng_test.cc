// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

namespace skipnode {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformFloatRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.UniformFloat(-2.5f, 3.5f);
    ASSERT_GE(v, -2.5f);
    ASSERT_LT(v, 3.5f);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) counts[rng.UniformInt(10)] += 1;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.1, 0.01);
  }
}

TEST(RngTest, NormalHasUnitVariance) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / draws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / draws, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesRate) {
  Rng rng(5);
  int hits = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.02);
}

// BernoulliFill is n calls to Bernoulli(p) in one pass: the same draws and
// the same end state, for every p — including the ones its integer threshold
// special-cases (p <= 0, NaN, p >= 1) and a p with no dyadic representation.
TEST(RngTest, BernoulliFillMatchesRepeatedBernoulli) {
  const double ps[] = {-0.5, std::numeric_limits<double>::quiet_NaN(),
                       0.0,  std::ldexp(1.0, -60),
                       0.1,  0.3,
                       0.5,  0.7,
                       1.0 - std::ldexp(1.0, -53),
                       1.0,  1.5};
  const int64_t ns[] = {0, 1, 9, 100003};
  for (const double p : ps) {
    for (const int64_t n : ns) {
      Rng calls(31), fill(31);
      std::vector<uint8_t> hits(static_cast<size_t>(n), 7);
      fill.BernoulliFill(p, hits.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<size_t>(i)], calls.Bernoulli(p) ? 1 : 0)
            << "p=" << p << " n=" << n << " draw " << i;
      }
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(fill.Next(), calls.Next()) << "p=" << p << " n=" << n;
      }
    }
  }
}

// The integer threshold is exact at the boundary: a draw u hits iff
// u * 2^-53 < p, so p equal to the drawn value misses and the next double
// above it hits.
TEST(RngTest, BernoulliFillThresholdIsExactAtTheDraw) {
  for (const uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Rng probe(seed);
    const double drawn = probe.Uniform();
    for (const double p : {drawn, std::nextafter(drawn, 1.0),
                           std::nextafter(drawn, 0.0)}) {
      Rng calls(seed), fill(seed);
      uint8_t hit = 7;
      fill.BernoulliFill(p, &hit, 1);
      EXPECT_EQ(hit, calls.Bernoulli(p) ? 1 : 0) << "p=" << p;
      EXPECT_EQ(hit, drawn < p ? 1 : 0) << "p=" << p;
    }
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(9);
  const std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const int s : sample) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(9);
  const std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, WeightedSampleRespectsWeights) {
  Rng rng(13);
  // Index 0 has 10x the weight of the others; it should be selected in a
  // size-1 draw far more often.
  std::vector<double> weights = {10.0, 1.0, 1.0, 1.0, 1.0};
  int zero_count = 0;
  const int draws = 5000;
  for (int i = 0; i < draws; ++i) {
    const std::vector<int> pick = rng.WeightedSampleWithoutReplacement(weights, 1);
    ASSERT_EQ(pick.size(), 1u);
    if (pick[0] == 0) ++zero_count;
  }
  // P(pick 0) = 10/14 ~ 0.714.
  EXPECT_NEAR(static_cast<double>(zero_count) / draws, 10.0 / 14.0, 0.03);
}

TEST(RngTest, WeightedSampleIsWithoutReplacement) {
  Rng rng(17);
  std::vector<double> weights(20, 1.0);
  const std::vector<int> sample =
      rng.WeightedSampleWithoutReplacement(weights, 20);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(RngTest, WeightedSampleHandlesZeroWeights) {
  Rng rng(19);
  // Only two positive-weight items but k = 3: zero-weight items may fill in.
  std::vector<double> weights = {0.0, 5.0, 0.0, 5.0};
  const std::vector<int> sample =
      rng.WeightedSampleWithoutReplacement(weights, 3);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 3u);
  // The two positive-weight items must both be present.
  EXPECT_TRUE(unique.count(1) == 1 && unique.count(3) == 1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

}  // namespace
}  // namespace skipnode
