// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/pool.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include "base/check.h"
#include "base/telemetry.h"

namespace skipnode {

namespace {

std::atomic<bool> g_pool_enabled{[]() {
  const char* env = std::getenv("SKIPNODE_POOL");
  return env == nullptr || std::strcmp(env, "0") != 0;
}()};

int64_t CapacityBytes(int64_t capacity) {
  return capacity * static_cast<int64_t>(sizeof(float));
}

}  // namespace

bool MatrixPoolEnabled() {
  return g_pool_enabled.load(std::memory_order_relaxed);
}

void SetMatrixPoolEnabled(bool enabled) {
  g_pool_enabled.store(enabled, std::memory_order_relaxed);
}

Matrix MatrixPool::Acquire(int rows, int cols) {
  SKIPNODE_CHECK(rows >= 0 && cols >= 0);
  const int64_t size = static_cast<int64_t>(rows) * cols;
  if (!MatrixPoolEnabled() || size == 0) {
    CountMetric("pool.miss", size);
    return Matrix(rows, cols);
  }
  FloatBuffer storage;
  int64_t recycled_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Buckets never sit empty, so the first one at or above `size` holds
    // the best fit; it is taken only when at most a quarter larger.
    const auto it = buckets_.lower_bound(size);
    if (it != buckets_.end() && 4 * it->first <= 5 * size) {
      storage = std::move(it->second.back());
      it->second.pop_back();
      if (it->second.empty()) buckets_.erase(it);
      recycled_bytes = CapacityBytes(storage.capacity());
      bytes_retained_ -= recycled_bytes;
      handed_out_.insert(storage.data());
    }
  }
  if (recycled_bytes == 0) {
    CountMetric("pool.miss", size);
    Matrix fresh(rows, cols);
    std::lock_guard<std::mutex> lock(mutex_);
    handed_out_.insert(fresh.data());
    return fresh;
  }
  CountMetric("pool.hit", size);
  CountMetric("pool.bytes_retained", -recycled_bytes);
  // Zeroing exactly rows * cols elements keeps Acquire bit-for-bit
  // equivalent to Matrix(rows, cols); assign stays within the capacity, so
  // the storage handed out is the storage recorded.
  storage.assign(size, 0.0f);
  return Matrix(rows, cols, std::move(storage));
}

void MatrixPool::Release(Matrix m) {
  if (m.size() == 0) return;
  FloatBuffer storage = std::move(m).TakeStorage();
  const int64_t capacity = static_cast<int64_t>(storage.capacity());
  const int64_t bytes = CapacityBytes(capacity);
  bool kept = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The record is dropped even while the pool is disabled.
    if (handed_out_.erase(storage.data()) > 0 && MatrixPoolEnabled()) {
      std::vector<FloatBuffer>& bucket = buckets_[capacity];
      const int64_t held = static_cast<int64_t>(bucket.size());
      kept = held < kMaxBuffersPerBucket &&
             (held + 1) * bytes <= kMaxBytesPerBucket;
      if (kept) {
        bucket.push_back(std::move(storage));
        bytes_retained_ += bytes;
      } else if (bucket.empty()) {
        buckets_.erase(capacity);
      }
    }
  }
  if (kept) {
    CountMetric("pool.bytes_retained", bytes);
  } else {
    CountMetric("pool.dropped", capacity);  // The storage frees on return.
  }
}

int64_t MatrixPool::Trim(int64_t target_bytes) {
  SKIPNODE_CHECK(target_bytes >= 0);
  int64_t freed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Largest capacities live at the end of the capacity-ordered map; free
    // those first so a small target keeps the cheap hot buckets.
    while (bytes_retained_ > target_bytes && !buckets_.empty()) {
      const auto last = std::prev(buckets_.end());
      const int64_t bytes = CapacityBytes(last->first);
      last->second.pop_back();
      if (last->second.empty()) buckets_.erase(last);
      bytes_retained_ -= bytes;
      freed += bytes;
    }
  }
  if (freed > 0) CountMetric("pool.bytes_retained", -freed);
  return freed;
}

void MatrixPool::Clear() { Trim(0); }

int MatrixPool::BucketSize(int64_t capacity) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = buckets_.find(capacity);
  return it == buckets_.end() ? 0 : static_cast<int>(it->second.size());
}

int64_t MatrixPool::bytes_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_retained_;
}

MatrixPool& GlobalMatrixPool() {
  static MatrixPool* pool = new MatrixPool();
  return *pool;
}

}  // namespace skipnode
