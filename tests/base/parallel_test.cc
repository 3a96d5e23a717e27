// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "testing/pool_dispatches.h"

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
  ParallelFor(
      0, 257,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      kMinWorkPerChunk);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, EmptyAndSingleElementRanges) {
  SetParallelThreadCount(4);
  int calls = 0;
  ParallelFor(
      5, 5, [&](int64_t, int64_t) { ++calls; }, kMinWorkPerChunk);
  EXPECT_EQ(calls, 0);
  ParallelFor(
      7, 8,
      [&](int64_t lo, int64_t hi) {
        EXPECT_EQ(lo, 7);
        EXPECT_EQ(hi, 8);
        ++calls;
      },
      kMinWorkPerChunk);
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, ChunksAreContiguousAndDisjoint) {
  SetParallelThreadCount(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelFor(
      10, 110,
      [&](int64_t lo, int64_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      },
      kMinWorkPerChunk);
  ASSERT_EQ(chunks.size(), 4u);
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 10);
  EXPECT_EQ(chunks.back().second, 110);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);  // No gap, no overlap.
  }
}

TEST_F(ParallelTest, WorkBelowTheGrainRunsInline) {
  SetParallelThreadCount(8);
  // 100 elements whose total work falls one unit short of the grain: one
  // inline call, no dispatch.
  std::atomic<int> calls{0};
  const int64_t dispatches = testing::PoolDispatches([&] {
    ParallelFor(
        0, 100, [&](int64_t, int64_t) { calls.fetch_add(1); },
        (kMinWorkPerChunk - 1) / 100);
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(dispatches, 0);
}

TEST_F(ParallelTest, ChunksFollowTheDeclaredWork) {
  SetParallelThreadCount(8);
  // chunks = min(threads, n, total work / kMinWorkPerChunk).
  const auto chunk_count = [](int64_t n, int64_t work_per_element) {
    std::atomic<int> calls{0};
    ParallelFor(
        0, n, [&](int64_t, int64_t) { calls.fetch_add(1); },
        work_per_element);
    return calls.load();
  };
  EXPECT_EQ(chunk_count(100, 2 * kMinWorkPerChunk / 100 + 1), 2);
  EXPECT_EQ(chunk_count(100, 3 * kMinWorkPerChunk / 100 + 1), 3);
  EXPECT_EQ(chunk_count(100, kMinWorkPerChunk), 8);      // the thread cap
  EXPECT_EQ(chunk_count(5, kMinWorkPerChunk), 5);        // the element cap
  EXPECT_EQ(chunk_count(1 << 20, 0), 1);                 // no work
  EXPECT_EQ(chunk_count(3, int64_t{1} << 62), 3);        // saturates
  SetParallelThreadCount(1);
  EXPECT_EQ(chunk_count(100, kMinWorkPerChunk), 1);
}

TEST_F(ParallelTest, WorkAtTwiceTheGrainDispatches) {
  SetParallelThreadCount(4);
  const int64_t dispatches = testing::PoolDispatches([] {
    ParallelFor(
        0, 2, [](int64_t, int64_t) {}, kMinWorkPerChunk);
  });
  EXPECT_EQ(dispatches, 1);
}

TEST_F(ParallelTest, PoolIsReusedAcrossManyCalls) {
  SetParallelThreadCount(4);
  // Hundreds of back-to-back jobs through the same pool; workers must wake,
  // finish, and park cleanly every time.
  for (int round = 0; round < 300; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(
        0, 64,
        [&](int64_t lo, int64_t hi) {
          int64_t local = 0;
          for (int64_t i = lo; i < hi; ++i) local += i;
          sum.fetch_add(local);
        },
        kMinWorkPerChunk);
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST_F(ParallelTest, NestedCallsRunInlineWithoutDeadlock) {
  SetParallelThreadCount(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  ParallelFor(
      0, 8,
      [&](int64_t lo, int64_t hi) {
        for (int64_t block = lo; block < hi; ++block) {
          const std::thread::id outer = std::this_thread::get_id();
          ParallelFor(
              block * 8, (block + 1) * 8,
              [&](int64_t ilo, int64_t ihi) {
                // The nested region must not hop threads: it runs inline on
                // the worker that owns the outer chunk.
                EXPECT_EQ(std::this_thread::get_id(), outer);
                for (int64_t i = ilo; i < ihi; ++i) hits[i].fetch_add(1);
              },
              kMinWorkPerChunk);
        }
      },
      kMinWorkPerChunk);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, TopLevelCallerFindingThePoolBusyRunsInline) {
  SetParallelThreadCount(4);
  // Caller B's job is a row-owned map, so a serial run is its reference.
  constexpr int64_t kN = 1 << 12;
  const auto fill = [](std::vector<float>& out) {
    return [&out](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        out[i] = std::sqrt(static_cast<float>(i)) * 0.37f;
      }
    };
  };
  std::vector<float> serial(kN), inline_run(kN);
  fill(serial)(0, kN);

  // Caller A's chunks hold the pool until B, another top-level caller on
  // its own thread, has finished. B must not wait for A: it runs its whole
  // range inline on its thread, once.
  std::promise<void> b_done;
  const std::shared_future<void> b_finished = b_done.get_future().share();
  std::once_flag start_b;
  std::thread b;
  std::atomic<int> b_calls{0};
  std::atomic<bool> b_off_thread{false};
  std::atomic<int> a_timeouts{0};
  ParallelFor(
      0, 4,
      [&](int64_t, int64_t) {
        std::call_once(start_b, [&] {
          b = std::thread([&] {
            const std::thread::id self = std::this_thread::get_id();
            const auto body = fill(inline_run);
            ParallelFor(
                0, kN,
                [&](int64_t lo, int64_t hi) {
                  b_calls.fetch_add(1);
                  if (std::this_thread::get_id() != self) {
                    b_off_thread = true;
                  }
                  body(lo, hi);
                },
                kMinWorkPerChunk);
            b_done.set_value();
          });
        });
        if (b_finished.wait_for(std::chrono::seconds(5)) !=
            std::future_status::ready) {
          a_timeouts.fetch_add(1);
        }
      },
      kMinWorkPerChunk);
  b.join();
  EXPECT_EQ(a_timeouts.load(), 0) << "B waited for A's job to end";
  EXPECT_EQ(b_calls.load(), 1);
  EXPECT_FALSE(b_off_thread.load());
  EXPECT_EQ(0, std::memcmp(serial.data(), inline_run.data(),
                           kN * sizeof(float)));
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
    }, kMinWorkPerChunk);
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
  }, kMinWorkPerChunk);
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
  }, kMinWorkPerChunk);
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
  ParallelForBalanced(
      0, nullptr, [&](int64_t, int64_t) { ++calls; }, kMinWorkPerChunk);
  EXPECT_EQ(calls, 0);
  // Total cost 40 at >= 25 per chunk allows at most one chunk.
  std::atomic<int> chunk_calls{0};
  // Total cost 40 at kMinWorkPerChunk / 25 work each is 1.6 grains: one
  // chunk.
  ParallelForBalanced(
      4, prefix.data(), [&](int64_t, int64_t) { chunk_calls.fetch_add(1); },
      kMinWorkPerChunk / 25);
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
    }, kMinWorkPerChunk);
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
  }, kMinWorkPerChunk);
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
  ParallelFor(
      0, 3,
      [&](int64_t lo, int64_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        ++chunk_count;
        EXPECT_LT(lo, hi);
        for (int64_t i = lo; i < hi; ++i) EXPECT_TRUE(seen.insert(i).second);
      },
      kMinWorkPerChunk);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_LE(chunk_count, 3);
}

}  // namespace
}  // namespace skipnode
