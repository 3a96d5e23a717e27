// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "base/check.h"

namespace skipnode {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed expansion via SplitMix64 as recommended by the xoshiro authors; it
  // guarantees a non-zero state for any seed.
  uint64_t s = seed;
  for (uint64_t& word : state_) word = SplitMix64(s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

float Rng::UniformFloat(float lo, float hi) {
  return lo + static_cast<float>(Uniform()) * (hi - lo);
}

uint64_t Rng::UniformInt(uint64_t n) {
  SKIPNODE_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = ~0ULL - ~0ULL % n;
  uint64_t value = Next();
  while (value >= limit) value = Next();
  return value % n;
}

double Rng::Normal() {
  // Box-Muller; discard the second variate for simplicity.
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  SKIPNODE_CHECK(k >= 0 && k <= n);
  std::vector<int> pool(n);
  for (int i = 0; i < n; ++i) pool[i] = i;
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(UniformInt(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::vector<int> Rng::WeightedSampleWithoutReplacement(
    const std::vector<double>& weights, int k) {
  // Efraimidis-Spirakis: draw key_i = log(u_i) / w_i and keep the k largest.
  // Equivalent to sequential weighted sampling without replacement but runs
  // in O(n log n) instead of O(n * k), which matters because SkipNode's
  // biased sampler runs once per layer per training step.
  const int n = static_cast<int>(weights.size());
  SKIPNODE_CHECK(k >= 0 && k <= n);
  std::vector<std::pair<double, int>> keyed(n);
  for (int i = 0; i < n; ++i) {
    SKIPNODE_CHECK(weights[i] >= 0.0);
    // Zero-weight items get an effectively -inf key so they are only chosen
    // once every positive-weight item has been taken.
    const double w = weights[i] > 0.0 ? weights[i] : 1e-12;
    double u = Uniform();
    while (u <= 1e-300) u = Uniform();
    keyed[i] = {std::log(u) / w, i};
  }
  std::partial_sort(keyed.begin(), keyed.begin() + k, keyed.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int> result(k);
  for (int i = 0; i < k; ++i) result[i] = keyed[i].second;
  return result;
}

void Rng::Shuffle(std::vector<int>& values) {
  const int n = static_cast<int>(values.size());
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(UniformInt(i + 1));
    std::swap(values[i], values[j]);
  }
}

void Rng::BernoulliFill(double p, uint8_t* hit, int64_t n) {
  // Uniform() < p  <=>  (Next() >> 11) < p * 2^53, because Uniform() is that
  // 53-bit integer scaled by 2^-53 and scaling by a power of two is exact.
  // For an integer left side the bound is ceil(p * 2^53). p <= 0 and NaN
  // never hit; p >= 1 always hits (every draw is below 2^53).
  uint64_t threshold = 0;
  if (p >= 1.0) {
    threshold = uint64_t{1} << 53;
  } else if (p > 0.0) {
    threshold = static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
  }
  // Next(), step for step, on a local copy of the state.
  uint64_t s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t result = Rotl(s1 * 5, 7) * 9;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
    hit[i] = (result >> 11) < threshold ? 1 : 0;
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

}  // namespace skipnode
