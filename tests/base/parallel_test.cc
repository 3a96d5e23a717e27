// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace skipnode {
namespace {

// Restores the default thread count after each test so the override never
// leaks into other test binaries' expectations.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreadCount(0); }
};

TEST_F(ParallelTest, CoversRangeExactlyOnce) {
  SetParallelThreadCount(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(0, 257, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, EmptyAndSingleElementRanges) {
  SetParallelThreadCount(4);
  int calls = 0;
  ParallelFor(5, 5, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(7, 8, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(lo, 7);
    EXPECT_EQ(hi, 8);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, ChunksAreContiguousAndDisjoint) {
  SetParallelThreadCount(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelFor(10, 110, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(chunks.size(), 4u);
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 10);
  EXPECT_EQ(chunks.back().second, 110);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);  // No gap, no overlap.
  }
}

TEST_F(ParallelTest, MinPerThreadCapsFanOut) {
  SetParallelThreadCount(8);
  std::atomic<int> calls{0};
  // 100 elements at >= 60 per chunk allows at most one chunk.
  ParallelFor(
      0, 100, [&](int64_t, int64_t) { calls.fetch_add(1); },
      /*min_per_thread=*/60);
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(ParallelTest, PoolIsReusedAcrossManyCalls) {
  SetParallelThreadCount(4);
  // Hundreds of back-to-back jobs through the same pool; workers must wake,
  // finish, and park cleanly every time.
  for (int round = 0; round < 300; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(0, 64, [&](int64_t lo, int64_t hi) {
      int64_t local = 0;
      for (int64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST_F(ParallelTest, NestedCallsRunInlineWithoutDeadlock) {
  SetParallelThreadCount(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  ParallelFor(0, 8, [&](int64_t lo, int64_t hi) {
    for (int64_t block = lo; block < hi; ++block) {
      const std::thread::id outer = std::this_thread::get_id();
      ParallelFor(block * 8, (block + 1) * 8, [&](int64_t ilo, int64_t ihi) {
        // The nested region must not hop threads: it runs inline on the
        // worker that owns the outer chunk.
        EXPECT_EQ(std::this_thread::get_id(), outer);
        for (int64_t i = ilo; i < ihi; ++i) hits[i].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, SetParallelThreadCountForcesAndRestores) {
  SetParallelThreadCount(3);
  EXPECT_EQ(ParallelThreadCount(), 3);
  SetParallelThreadCount(1);
  EXPECT_EQ(ParallelThreadCount(), 1);
  SetParallelThreadCount(0);
  EXPECT_GE(ParallelThreadCount(), 1);  // Back to env/hardware default.
}

TEST_F(ParallelTest, EnvOverrideIsHonoured) {
  const char* saved = std::getenv("SKIPNODE_NUM_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";

  setenv("SKIPNODE_NUM_THREADS", "3", /*overwrite=*/1);
  SetParallelThreadCount(0);  // Drop the cached resolution.
  EXPECT_EQ(ParallelThreadCount(), 3);

  // An explicit override beats the environment.
  SetParallelThreadCount(2);
  EXPECT_EQ(ParallelThreadCount(), 2);

  if (saved != nullptr) {
    setenv("SKIPNODE_NUM_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("SKIPNODE_NUM_THREADS");
  }
  SetParallelThreadCount(0);
}

TEST_F(ParallelTest, BalancedCoversRangeExactlyOnce) {
  // Uniform cost: behaves like ParallelFor.
  std::vector<int64_t> prefix(258);
  for (int i = 0; i < 258; ++i) prefix[i] = i * 3;
  for (const int threads : {1, 4, 8}) {
    SetParallelThreadCount(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelForBalanced(257, prefix.data(), [&](int64_t lo, int64_t hi) {
      EXPECT_LT(lo, hi);  // fn is never invoked on an empty range.
      for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST_F(ParallelTest, BalancedSplitsSkewedCostEvenly) {
  SetParallelThreadCount(2);
  // One hub element carries ~all the cost (a high-degree CSR row); the
  // equal-cost-share boundary must isolate it rather than splitting the
  // element count in half.
  std::vector<int64_t> prefix = {0, 1000, 1001, 1002, 1003, 1004};
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelForBalanced(5, prefix.data(), [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{0, 1}));  // The hub alone.
  EXPECT_EQ(chunks[1], (std::pair<int64_t, int64_t>{1, 5}));
}

TEST_F(ParallelTest, BalancedSkipsEmptyChunksFromZeroCostRuns) {
  SetParallelThreadCount(4);
  // All cost sits in the last element; every interior boundary collapses
  // onto it, and fn must only ever see non-empty ranges that tile [0, n).
  std::vector<int64_t> prefix = {0, 0, 0, 0, 0, 0, 0, 0, 800};
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelForBalanced(8, prefix.data(), [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_LT(lo, hi);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 0);
  EXPECT_EQ(chunks.back().second, 8);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
  }
}

TEST_F(ParallelTest, BalancedEmptyRangeAndMinCostCap) {
  SetParallelThreadCount(8);
  std::vector<int64_t> prefix = {0, 10, 20, 30, 40};
  int calls = 0;
  ParallelForBalanced(0, nullptr, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Total cost 40 at >= 25 per chunk allows at most one chunk.
  std::atomic<int> chunk_calls{0};
  ParallelForBalanced(
      4, prefix.data(), [&](int64_t, int64_t) { chunk_calls.fetch_add(1); },
      /*min_cost_per_chunk=*/25);
  EXPECT_EQ(chunk_calls.load(), 1);
}

TEST_F(ParallelTest, BalancedBoundariesAreThreadCountDeterministic) {
  // Same prefix and thread count must always produce identical boundaries —
  // the DESIGN §7 contract that partitioning never depends on timing.
  std::vector<int64_t> prefix(101);
  prefix[0] = 0;
  for (int i = 1; i <= 100; ++i) prefix[i] = prefix[i - 1] + (i * 7) % 13;
  SetParallelThreadCount(4);
  auto collect = [&] {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    ParallelForBalanced(100, prefix.data(), [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto first = collect();
  for (int round = 0; round < 20; ++round) EXPECT_EQ(collect(), first);
}

TEST_F(ParallelTest, BalancedWideOffsetsHandleCostsBeyondInt32) {
  SetParallelThreadCount(4);
  // Per-element costs of ~2^31 overflow an int prefix immediately (a CSR
  // past INT32_MAX entries); the partition must still tile the range exactly
  // once with balanced chunks.
  constexpr int64_t kBig = int64_t{1} << 31;
  std::vector<int64_t> prefix(9);
  for (int i = 0; i <= 8; ++i) prefix[i] = i * kBig;
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelForBalanced(8, prefix.data(), [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_LT(lo, hi);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 4u);  // Uniform huge costs: one chunk per thread.
  EXPECT_EQ(chunks.front().first, 0);
  EXPECT_EQ(chunks.back().second, 8);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
  }
}

TEST_F(ParallelTest, ManyThreadsOnFewElementsNeverYieldsEmptyChunks) {
  SetParallelThreadCount(8);
  std::mutex mu;
  std::set<int64_t> seen;
  int chunk_count = 0;
  ParallelFor(0, 3, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    ++chunk_count;
    EXPECT_LT(lo, hi);
    for (int64_t i = lo; i < hi; ++i) EXPECT_TRUE(seen.insert(i).second);
  });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_LE(chunk_count, 3);
}

}  // namespace
}  // namespace skipnode
