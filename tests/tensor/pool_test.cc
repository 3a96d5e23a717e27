// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/pool.h"

#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/aligned.h"
#include "base/telemetry.h"

namespace skipnode {
namespace {

// Acquires one buffer of each capacity (1 x c) and releases them all, so
// the pool holds exactly those capacities.
void Seed(MatrixPool& pool, const std::vector<int>& capacities) {
  std::vector<Matrix> held;
  for (const int c : capacities) held.push_back(pool.Acquire(1, c));
  for (Matrix& m : held) pool.Release(std::move(m));
}

TEST(MatrixPoolTest, AcquireReturnsZeroedMatrixOfRequestedShape) {
  MatrixPool pool;
  Matrix m = pool.Acquire(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(MatrixPoolTest, ReleaseThenAcquireRecyclesAndRezeroes) {
  MatrixPool pool;
  Matrix m = pool.Acquire(4, 4);
  m(0, 0) = 7.0f;
  m(3, 3) = -2.5f;
  pool.Release(std::move(m));
  EXPECT_EQ(pool.BucketSize(16), 1);

  Matrix recycled = pool.Acquire(4, 4);
  EXPECT_EQ(pool.BucketSize(16), 0);
  // The recycled buffer must be indistinguishable from a fresh Matrix(4, 4).
  for (int64_t i = 0; i < recycled.size(); ++i) {
    EXPECT_EQ(recycled.data()[i], 0.0f);
  }
}

TEST(MatrixPoolTest, BucketsAreKeyedByCapacity) {
  MatrixPool pool;
  Matrix first = pool.Acquire(2, 6);
  const float* storage = first.data();
  pool.Release(std::move(first));
  EXPECT_EQ(pool.BucketSize(12), 1);
  // Same element count, different shape: the same storage comes back.
  Matrix other = pool.Acquire(3, 4);
  EXPECT_EQ(other.data(), storage);
  EXPECT_EQ(other.rows(), 3);
  EXPECT_EQ(other.cols(), 4);
  EXPECT_EQ(pool.BucketSize(12), 0);
  pool.Release(std::move(other));
  EXPECT_EQ(pool.BucketSize(12), 1);
}

TEST(MatrixPoolTest, BestFitTakesTheSmallestFittingBuffer) {
  MatrixPool pool;
  Seed(pool, {100, 104, 112, 90});
  // 90 is too small; 100, 104 and 112 all fit within a quarter of 98.
  Matrix m = pool.Acquire(2, 49);
  EXPECT_EQ(pool.BucketSize(100), 0);
  EXPECT_EQ(pool.BucketSize(104), 1);
  EXPECT_EQ(pool.BucketSize(112), 1);
  EXPECT_EQ(pool.BucketSize(90), 1);
  EXPECT_EQ(pool.bytes_retained(), (104 + 112 + 90) * 4);
}

TEST(MatrixPoolTest, BufferMoreThanAQuarterLargerIsNeverReused) {
  MatrixPool pool;
  Seed(pool, {126});
  // 126 > 1.25 x 100: a fresh allocation, the pooled buffer stays put.
  Matrix fresh = pool.Acquire(10, 10);
  EXPECT_EQ(pool.BucketSize(126), 1);
  Seed(pool, {125});
  // Exactly a quarter larger still fits.
  Matrix fitted = pool.Acquire(10, 10);
  EXPECT_EQ(pool.BucketSize(125), 0);
  EXPECT_EQ(pool.BucketSize(126), 1);
}

TEST(MatrixPoolTest, LargerRecycledBufferComesBackExactShapeAndZeroed) {
  MatrixPool pool;
  Matrix big = pool.Acquire(10, 12);
  const float* storage = big.data();
  for (int64_t i = 0; i < big.size(); ++i) {
    big.data()[i] = std::numeric_limits<float>::quiet_NaN();
  }
  pool.Release(std::move(big));

  Matrix m = pool.Acquire(10, 10);
  EXPECT_EQ(m.data(), storage);
  EXPECT_EQ(m.rows(), 10);
  EXPECT_EQ(m.cols(), 10);
  EXPECT_EQ(m.size(), 100);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.data()[i], 0.0f) << i;
    EXPECT_FALSE(std::signbit(m.data()[i])) << i;
  }
  // Released again, the storage returns to its capacity bucket.
  pool.Release(std::move(m));
  EXPECT_EQ(pool.BucketSize(120), 1);
  EXPECT_EQ(pool.BucketSize(100), 0);
  EXPECT_EQ(pool.bytes_retained(), 120 * 4);
}

TEST(MatrixPoolTest, ForeignMatrixIsFreedAndLeavesBytesRetainedUnchanged) {
  MatrixPool pool;
  pool.Release(pool.Acquire(2, 2));
  ASSERT_EQ(pool.bytes_retained(), 16);
  SetTelemetryEnabled(true);
  ResetTelemetry();
  pool.Release(Matrix(3, 3));  // Never handed out by this pool.
  pool.Release(Matrix(2, 2));  // Same size as a pooled buffer: still foreign.
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  EXPECT_EQ(pool.bytes_retained(), 16);
  EXPECT_EQ(pool.BucketSize(9), 0);
  EXPECT_EQ(pool.BucketSize(4), 1);
  const MetricStat* dropped = snapshot.Find("pool.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->count, 2);
  EXPECT_EQ(dropped->items, 9 + 4);
  EXPECT_EQ(snapshot.Find("pool.bytes_retained"), nullptr);
}

TEST(MatrixPoolTest, StorageFromAnotherPoolIsForeign) {
  MatrixPool pool;
  MatrixPool other;
  pool.Release(other.Acquire(4, 4));
  EXPECT_EQ(pool.BucketSize(16), 0);
  EXPECT_EQ(pool.bytes_retained(), 0);
}

TEST(MatrixPoolTest, ClearFreesEverything) {
  MatrixPool pool;
  pool.Release(pool.Acquire(2, 2));
  pool.Release(pool.Acquire(5, 1));
  pool.Clear();
  EXPECT_EQ(pool.BucketSize(4), 0);
  EXPECT_EQ(pool.BucketSize(5), 0);
  EXPECT_EQ(pool.bytes_retained(), 0);
}

TEST(MatrixPoolTest, EmptyMatricesAreNeverPooled) {
  MatrixPool pool;
  pool.Release(pool.Acquire(0, 3));
  EXPECT_EQ(pool.BucketSize(0), 0);
  EXPECT_EQ(pool.bytes_retained(), 0);
}

TEST(MatrixPoolTest, BucketIsCapped) {
  MatrixPool pool;
  std::vector<Matrix> held;
  for (int i = 0; i < MatrixPool::kMaxBuffersPerBucket + 10; ++i) {
    held.push_back(pool.Acquire(1, 3));
  }
  SetTelemetryEnabled(true);
  ResetTelemetry();
  for (Matrix& m : held) pool.Release(std::move(m));
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  EXPECT_EQ(pool.BucketSize(3), MatrixPool::kMaxBuffersPerBucket);
  const MetricStat* dropped = snapshot.Find("pool.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->count, 10);
  EXPECT_EQ(dropped->items, 10 * 3);
}

TEST(MatrixPoolTest, DisabledPoolAllocatesAndFrees) {
  MatrixPool pool;
  SetMatrixPoolEnabled(false);
  pool.Release(pool.Acquire(2, 2));
  EXPECT_EQ(pool.BucketSize(4), 0);

  // A buffer pooled while enabled is not handed out while disabled.
  SetMatrixPoolEnabled(true);
  pool.Release(pool.Acquire(2, 2));
  EXPECT_EQ(pool.BucketSize(4), 1);
  SetMatrixPoolEnabled(false);
  Matrix fresh = pool.Acquire(2, 2);
  EXPECT_EQ(fresh.rows(), 2);
  EXPECT_EQ(pool.BucketSize(4), 1);

  // Storage handed out while enabled and released while disabled is freed.
  SetMatrixPoolEnabled(true);
  Matrix handed_out = pool.Acquire(3, 3);
  SetMatrixPoolEnabled(false);
  pool.Release(std::move(handed_out));
  SetMatrixPoolEnabled(true);
  EXPECT_EQ(pool.BucketSize(9), 0);
  EXPECT_EQ(pool.bytes_retained(), 4 * 4);
}

TEST(MatrixPoolTest, BytesRetainedTracksReleasesAndAcquires) {
  MatrixPool pool;
  EXPECT_EQ(pool.bytes_retained(), 0);
  pool.Release(pool.Acquire(2, 3));
  EXPECT_EQ(pool.bytes_retained(), 2 * 3 * 4);
  pool.Release(pool.Acquire(5, 2));  // 10 > 1.25 x 6: its own bucket
  EXPECT_EQ(pool.bytes_retained(), 2 * 3 * 4 + 5 * 2 * 4);
  Matrix m = pool.Acquire(2, 3);  // pops the 6-element buffer
  EXPECT_EQ(pool.bytes_retained(), 5 * 2 * 4);
  // A best fit hands out (and later takes back) its whole capacity.
  Matrix fitted = pool.Acquire(3, 3);  // pops the 10-element buffer
  EXPECT_EQ(pool.bytes_retained(), 0);
  pool.Release(std::move(fitted));
  EXPECT_EQ(pool.bytes_retained(), 10 * 4);
  pool.Clear();
  EXPECT_EQ(pool.bytes_retained(), 0);
}

TEST(MatrixPoolTest, BucketByteCapFreesOverflow) {
  MatrixPool pool;
  // Rows sized so two buffers fit under the byte cap but three do not.
  const int64_t cap_rows = MatrixPool::kMaxBytesPerBucket / (2LL * 4) / 2;
  ASSERT_LT(cap_rows, static_cast<int64_t>(1) << 31);
  const int rows = static_cast<int>(cap_rows);
  std::vector<Matrix> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.Acquire(rows, 2));
  for (Matrix& m : held) pool.Release(std::move(m));
  EXPECT_EQ(pool.BucketSize(cap_rows * 2), 2);
  EXPECT_LE(pool.bytes_retained(), MatrixPool::kMaxBytesPerBucket);
  pool.Clear();
}

TEST(MatrixPoolTest, TrimFreesLargestCapacitiesFirst) {
  MatrixPool pool;
  Seed(pool, {4, 100, 500});  // 16, 400 and 2000 bytes
  EXPECT_EQ(pool.bytes_retained(), 16 + 400 + 2000);

  // Trimming to 500 bytes must drop the big buffer and keep the small ones.
  const int64_t freed = pool.Trim(500);
  EXPECT_EQ(freed, 2000);
  EXPECT_EQ(pool.bytes_retained(), 416);
  EXPECT_EQ(pool.BucketSize(500), 0);
  EXPECT_EQ(pool.BucketSize(100), 1);
  EXPECT_EQ(pool.BucketSize(4), 1);

  // Trim(0) empties the pool and reports the remainder.
  EXPECT_EQ(pool.Trim(0), 416);
  EXPECT_EQ(pool.bytes_retained(), 0);
  EXPECT_EQ(pool.Trim(0), 0);
}

TEST(MatrixPoolTest, BytesRetainedTelemetryIsSigned) {
  MatrixPool pool;
  SetTelemetryEnabled(true);
  ResetTelemetry();
  pool.Release(pool.Acquire(4, 4));   // +64 bytes
  Matrix m = pool.Acquire(4, 4);      // -64 bytes (recycled)
  pool.Release(std::move(m));         // +64 bytes
  pool.Trim(0);                       // -64 bytes
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  const MetricStat* retained = snapshot.Find("pool.bytes_retained");
  ASSERT_NE(retained, nullptr);
  // The running item total nets to zero: everything parked was released.
  EXPECT_EQ(retained->items, 0);
  EXPECT_EQ(pool.bytes_retained(), 0);
  EXPECT_EQ(snapshot.Find("pool.dropped"), nullptr);
}

TEST(MatrixPoolTest, TelemetryCountsHitsAndMisses) {
  MatrixPool pool;
  SetTelemetryEnabled(true);
  ResetTelemetry();
  Matrix m = pool.Acquire(2, 3);            // miss
  pool.Release(std::move(m));
  Matrix again = pool.Acquire(2, 3);        // hit
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  const MetricStat* hit = snapshot.Find("pool.hit");
  const MetricStat* miss = snapshot.Find("pool.miss");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(hit->count, 1);
  EXPECT_EQ(miss->count, 1);
  // items carries the buffer element count (2 x 3).
  EXPECT_EQ(hit->items, 6);
}

TEST(MatrixPoolTest, AcquiredAndRecycledBuffersAreCacheLineAligned) {
  MatrixPool pool;
  Matrix fresh = pool.Acquire(3, 7);
  EXPECT_TRUE(IsBufferAligned(fresh.data()));
  pool.Release(std::move(fresh));
  Matrix recycled = pool.Acquire(3, 7);  // Pool hit: the same 64B buffer.
  EXPECT_TRUE(IsBufferAligned(recycled.data()));
}

// The serve writer's Freeze builds a Tape off the training thread, so the
// buckets and the handed-out record are shared; under TSan this case is
// the race check (tools/check_tsan.sh).
TEST(MatrixPoolTest, TwoThreadsAcquireAndReleaseConcurrently) {
  MatrixPool pool;
  const auto worker = [&pool](int base) {
    for (int i = 0; i < 500; ++i) {
      const int cols = base + i % 7;
      Matrix m = pool.Acquire(4, cols);
      for (int64_t k = 0; k < m.size(); ++k) {
        ASSERT_EQ(m.data()[k], 0.0f);
        m.data()[k] = 1.0f;
      }
      pool.Release(std::move(m));
      pool.Release(Matrix(1, 1000 + cols));  // foreign: freed
    }
  };
  std::thread a(worker, 8);
  std::thread b(worker, 10);
  a.join();
  b.join();
  // Every buffer came back, and only handed-out ones were kept.
  int64_t pooled_bytes = 0;
  for (int cols = 8; cols < 17; ++cols) {
    pooled_bytes += int64_t{pool.BucketSize(4 * cols)} * 4 * cols * 4;
    EXPECT_EQ(pool.BucketSize(1000 + cols), 0);
  }
  EXPECT_EQ(pooled_bytes, pool.bytes_retained());
  EXPECT_GT(pool.bytes_retained(), 0);
}

}  // namespace
}  // namespace skipnode
