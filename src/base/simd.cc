// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/simd.h"

#include <cstdlib>
#include <cstring>

#include "base/check.h"

namespace skipnode::simd {

bool ParseEnabledEnv(const char* value) {
  if (value == nullptr || std::strcmp(value, "1") == 0) return true;
  if (std::strcmp(value, "0") == 0) return false;
  SKIPNODE_CHECK_MSG(false, "SKIPNODE_SIMD must be \"0\" or \"1\", got \"%s\"",
                     value);
  return true;  // Unreachable.
}

namespace detail {
bool enabled = ParseEnabledEnv(std::getenv("SKIPNODE_SIMD"));
}  // namespace detail

void SetEnabled(bool enabled) { detail::enabled = enabled; }

const char* CompiledMode() { return "portable"; }

int64_t GemmTbPanelsSize(int n, int k) {
  const int64_t panels = (static_cast<int64_t>(n) + kLanes - 1) / kLanes;
  return panels * kLanes * k;
}

void PackGemmTbPanels(const float* b, int64_t ldb, int n, int k,
                      double* panels) {
  for (int p = 0; p < n; p += kLanes) {
    for (int j = 0; j < k; ++j, panels += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        panels[l] = p + l < n ? b[static_cast<int64_t>(p + l) * ldb + j] : 0.0;
      }
    }
  }
}

}  // namespace skipnode::simd
