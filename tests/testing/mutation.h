// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Seeded text mutations for the never-abort passes over untrusted inputs
// (graph files, dataset specs, checkpoints): every edit is drawn from the
// caller's Rng, so a fixed seed replays the same mutants on every run.

#ifndef SKIPNODE_TESTS_TESTING_MUTATION_H_
#define SKIPNODE_TESTS_TESTING_MUTATION_H_

#include <cstdint>
#include <string>

#include "base/rng.h"

namespace skipnode {
namespace testing {

// One random edit of `text`: a flipped bit, an inserted run of digits, a
// truncation, a duplicated line, or an inserted sign.
inline void MutateOnce(std::string* text, Rng& rng) {
  const auto position = [&] {
    return static_cast<size_t>(rng.UniformInt(text->size() + 1));
  };
  switch (rng.UniformInt(5)) {
    case 0:
      if (!text->empty()) {
        (*text)[rng.UniformInt(text->size())] ^=
            static_cast<char>(1u << rng.UniformInt(8));
      }
      break;
    case 1: {
      std::string digits(1 + rng.UniformInt(12), '0');
      for (char& digit : digits) digit += static_cast<char>(rng.UniformInt(10));
      text->insert(position(), digits);
      break;
    }
    case 2:
      text->resize(position());
      break;
    case 3: {
      const size_t begin = text->rfind('\n', position());
      const size_t start = begin == std::string::npos ? 0 : begin + 1;
      size_t end = text->find('\n', start);
      end = end == std::string::npos ? text->size() : end + 1;
      text->insert(end, text->substr(start, end - start));
      break;
    }
    default:
      text->insert(position(), 1, rng.Bernoulli(0.5) ? '-' : '+');
      break;
  }
}

// `text` after one to three MutateOnce edits.
inline std::string Mutated(std::string text, Rng& rng) {
  const uint64_t edits = 1 + rng.UniformInt(3);
  for (uint64_t i = 0; i < edits; ++i) MutateOnce(&text, rng);
  return text;
}

}  // namespace testing
}  // namespace skipnode

#endif  // SKIPNODE_TESTS_TESTING_MUTATION_H_
