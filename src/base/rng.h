// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Deterministic pseudo-random number generation used throughout the library.
// All stochastic components (weight init, dataset generation, Dropout,
// DropEdge, SkipNode sampling, ...) draw from an explicitly-passed Rng so
// every experiment is reproducible from a single seed.

#ifndef SKIPNODE_BASE_RNG_H_
#define SKIPNODE_BASE_RNG_H_

#include <cstdint>
#include <vector>

namespace skipnode {

// Small, fast, seedable generator (xoshiro256**). Not copy-protected: copying
// forks the stream, which is occasionally useful in tests.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed'0001ULL);

  // Returns the next raw 64-bit value.
  uint64_t Next();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform float in [lo, hi).
  float UniformFloat(float lo, float hi);

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  // Standard normal via Box-Muller.
  double Normal();

  // Bernoulli(p).
  bool Bernoulli(double p);

  // Writes n Bernoulli(p) draws to hit[0, n) (1 = hit): the same draws, and
  // the same end state, as n calls to Bernoulli(p), at a fraction of the
  // cost (the state stays in registers and each test is an integer compare).
  void BernoulliFill(double p, uint8_t* hit, int64_t n);

  // Returns `k` distinct indices sampled uniformly from [0, n) without
  // replacement (partial Fisher-Yates). Requires k <= n.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Returns `k` distinct indices from [0, n) sampled without replacement with
  // probability proportional to `weights` (sequential weighted sampling).
  // Requires k <= n and all weights >= 0 with a positive total.
  std::vector<int> WeightedSampleWithoutReplacement(
      const std::vector<double>& weights, int k);

  // Shuffles `values` in place.
  void Shuffle(std::vector<int>& values);

 private:
  uint64_t state_[4];
};

}  // namespace skipnode

#endif  // SKIPNODE_BASE_RNG_H_
