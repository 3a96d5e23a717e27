// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/telemetry.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "base/parallel.h"

// Global operator new/delete overrides counting every allocation in the
// process. Used to prove disabled-mode telemetry allocates nothing; active
// only inside this test binary.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  std::abort();  // no exceptions in this codebase
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace skipnode {
namespace {

// RAII: every test leaves telemetry disabled and empty for the next one.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTelemetryEnabled(true);
    ResetTelemetry();
  }
  void TearDown() override {
    ResetTelemetry();
    SetTelemetryEnabled(false);
  }
};

TEST_F(TelemetryTest, CountMetricAccumulates) {
  CountMetric("test.counter");
  CountMetric("test.counter", 41);
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  const MetricStat* stat = snapshot.Find("test.counter");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 2);
  EXPECT_EQ(stat->items, 42);
  EXPECT_EQ(stat->total_ns, 0);
}

TEST_F(TelemetryTest, ScopedTimerRecordsElapsed) {
  {
    const ScopedTimer timer("test.timer", /*items=*/7);
  }
  {
    const ScopedTimer timer("test.timer", /*items=*/3);
  }
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  const MetricStat* stat = snapshot.Find("test.timer");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 2);
  EXPECT_EQ(stat->items, 10);
  EXPECT_GE(stat->total_ns, 0);
  EXPECT_GE(stat->total_ns, stat->max_ns);
}

TEST_F(TelemetryTest, NestedTimersRecordBothScopes) {
  {
    const ScopedTimer outer("test.outer");
    const ScopedTimer inner("test.inner");
  }
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  ASSERT_NE(snapshot.Find("test.outer"), nullptr);
  ASSERT_NE(snapshot.Find("test.inner"), nullptr);
  // The outer scope strictly contains the inner one.
  EXPECT_GE(snapshot.Find("test.outer")->max_ns,
            snapshot.Find("test.inner")->max_ns);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName) {
  CountMetric("zeta");
  CountMetric("alpha");
  CountMetric("mid");
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  for (size_t i = 1; i < snapshot.metrics.size(); ++i) {
    EXPECT_LT(snapshot.metrics[i - 1].first, snapshot.metrics[i].first);
  }
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  CountMetric("test.counter");
  ResetTelemetry();
  EXPECT_TRUE(SnapshotTelemetry().metrics.empty());
}

TEST_F(TelemetryTest, MultiThreadAggregationIsComplete) {
  // Every chunk of a ParallelFor bumps the same counter once per element;
  // the aggregate must see every increment no matter which pool worker ran
  // it, at any thread count.
  constexpr int64_t kElements = 10000;
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    ResetTelemetry();
    ParallelFor(
        0, kElements,
        [](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) CountMetric("test.parallel");
        },
        kMinWorkPerChunk);
    const TelemetrySnapshot snapshot = SnapshotTelemetry();
    const MetricStat* stat = snapshot.Find("test.parallel");
    ASSERT_NE(stat, nullptr) << "threads=" << threads;
    EXPECT_EQ(stat->count, kElements) << "threads=" << threads;
    // The 4-thread pass really ran on the pool's workers.
    EXPECT_EQ(snapshot.Find("parallel.task") != nullptr, threads == 4);
  }
  SetParallelThreadCount(0);
}

TEST_F(TelemetryTest, ParallelForReportsTaskAndImbalance) {
  SetParallelThreadCount(4);
  ResetTelemetry();
  std::atomic<int64_t> sink{0};
  ParallelFor(
      0, 1 << 16,
      [&](int64_t lo, int64_t hi) {
        sink.fetch_add(hi - lo, std::memory_order_relaxed);
      },
      kMinWorkPerChunk);
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  ASSERT_NE(snapshot.Find("parallel.task"), nullptr);
  ASSERT_NE(snapshot.Find("parallel.imbalance"), nullptr);
  EXPECT_EQ(snapshot.Find("parallel.task")->items, 4);  // chunks == threads
  EXPECT_EQ(sink.load(), 1 << 16);
  SetParallelThreadCount(0);
}

TEST_F(TelemetryTest, ToJsonSerializesStats) {
  CountMetric("test.counter", 5);
  const std::string json = SnapshotTelemetry().ToJson();
  EXPECT_EQ(json,
            "{\"test.counter\":{\"count\":1,\"items\":5,\"total_ns\":0,"
            "\"max_ns\":0}}");
}

TEST_F(TelemetryTest, DisabledModeDoesNotRecordOrAllocate) {
  // Warm up this thread's lazy stats slot while still enabled, then disable.
  CountMetric("test.warmup");
  SetTelemetryEnabled(false);
  ResetTelemetry();
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const ScopedTimer timer("test.disabled", /*items=*/i);
    CountMetric("test.disabled");
    RecordTiming("test.disabled", 123);
  }
  const int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled telemetry must not allocate";
  SetTelemetryEnabled(true);
  EXPECT_EQ(SnapshotTelemetry().Find("test.disabled"), nullptr);
}

}  // namespace
}  // namespace skipnode
