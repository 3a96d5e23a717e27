// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Proof that a thread-count test really fanned out. A kernel whose declared
// work falls below kMinWorkPerChunk runs inline, so a "bitwise at 1 and 4
// threads" check on a small input compares two inline runs and proves
// nothing. Every across-thread-count test runs its 4-thread side through
// PoolDispatches and asserts a count > 0.

#ifndef SKIPNODE_TESTS_TESTING_POOL_DISPATCHES_H_
#define SKIPNODE_TESTS_TESTING_POOL_DISPATCHES_H_

#include <cstdint>
#include <functional>

#include "base/telemetry.h"

namespace skipnode {
namespace testing {

// Runs fn with telemetry on and returns how many jobs it dispatched to the
// pool (its `parallel.task` count). Telemetry stays off the numeric path
// (DESIGN §9), so fn computes exactly what it would with telemetry off. The
// count is a difference of two snapshots, so stats other code gathered
// before the call survive, and the switch is restored afterwards.
inline int64_t PoolDispatches(const std::function<void()>& fn) {
  const auto tasks = [] {
    const TelemetrySnapshot snapshot = SnapshotTelemetry();
    const MetricStat* stat = snapshot.Find("parallel.task");
    return stat == nullptr ? int64_t{0} : stat->count;
  };
  const bool enabled = TelemetryEnabled();
  SetTelemetryEnabled(true);
  const int64_t before = tasks();
  fn();
  const int64_t after = tasks();
  SetTelemetryEnabled(enabled);
  return after - before;
}

}  // namespace testing
}  // namespace skipnode

#endif  // SKIPNODE_TESTS_TESTING_POOL_DISPATCHES_H_
