// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "base/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "base/check.h"
#include "base/telemetry.h"

namespace skipnode {
namespace {

// Set while a thread is executing a ParallelFor chunk; nested calls from
// kernels that compose other kernels then run inline instead of deadlocking
// on (or oversubscribing) the pool.
thread_local bool in_parallel_region = false;

int ResolveDefaultThreadCount() {
  if (const char* env = std::getenv("SKIPNODE_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

// Explicit override from SetParallelThreadCount; 0 means "use the default".
std::atomic<int> thread_count_override{0};

// Lazily-resolved env/hardware default; 0 means "not yet resolved".
std::atomic<int> default_thread_count{0};

// Reusable worker pool. Workers are spawned on first demand and park on a
// condition variable between jobs; one job (a ParallelFor call) is active at
// a time, protected by run_mu_. Chunks are claimed atomically, so which
// worker runs which chunk is timing-dependent — but chunk *boundaries* are
// not, and chunks write disjoint output rows, so results never depend on the
// schedule.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  // Runs fn(chunk) for every chunk in [0, num_chunks) and returns true; the
  // calling thread participates and at most num_chunks - 1 workers are
  // woken. Returns false without running anything when another top-level
  // caller holds the pool: that caller's job may be long (a Freeze), and a
  // short job (a serving batch) is better run inline than queued behind it.
  bool TryRun(int num_chunks, const std::function<void(int)>& fn) {
    std::unique_lock<std::mutex> run_lock(run_mu_, std::try_to_lock);
    if (!run_lock.owns_lock()) return false;
    EnsureWorkers(num_chunks - 1);
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      job_chunks_ = num_chunks;
      next_chunk_ = 0;
      pending_ = num_chunks;
      id = ++job_id_;
    }
    work_cv_.notify_all();
    RunChunks(fn, id);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    return true;
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void EnsureWorkers(int count) {
    while (static_cast<int>(workers_.size()) < count) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  // Claims and runs chunks of job `id` until it is exhausted. The id guard
  // keeps a worker that woke up late (or raced past the end of one job) from
  // claiming chunks of a newer job while holding the older job's function:
  // once a chunk of `id` is claimed, pending_ > 0 pins that job's function
  // alive in Run until the chunk completes.
  void RunChunks(const std::function<void(int)>& fn, uint64_t id) {
    while (true) {
      int chunk;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (job_id_ != id || next_chunk_ >= job_chunks_) return;
        chunk = next_chunk_++;
      }
      in_parallel_region = true;
      fn(chunk);
      in_parallel_region = false;
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  void WorkerLoop() {
    while (true) {
      const std::function<void(int)>* job;
      uint64_t id;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] {
          return stop_ || (job_ != nullptr && next_chunk_ < job_chunks_);
        });
        if (stop_) return;
        job = job_;
        id = job_id_;
      }
      RunChunks(*job, id);
    }
  }

  std::mutex run_mu_;  // Held by the one top-level caller running a job.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t job_id_ = 0;
  int job_chunks_ = 0;
  int next_chunk_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

// Dispatches `chunks` chunk jobs through the pool; false when the pool is
// busy with another caller's job and nothing ran. Under telemetry each
// dispatched job is counted as one `parallel.task`, each chunk is timed
// (disjoint slots, so no write races) and the per-task shard imbalance — the
// gap between the slowest and fastest chunk, i.e. wall-clock the other
// threads spent idle at the barrier — is reported. All of it is off the
// numeric path: run_chunk is invoked identically either way.
bool RunPoolChunks(int chunks, const std::function<void(int)>& run_chunk) {
  if (!TelemetryEnabled()) {
    return ThreadPool::Instance().TryRun(chunks, run_chunk);
  }
  std::vector<int64_t> chunk_ns(static_cast<size_t>(chunks), 0);
  const int64_t task_start = MonotonicNanos();
  const bool ran = ThreadPool::Instance().TryRun(chunks, [&](int chunk) {
    const int64_t start = MonotonicNanos();
    run_chunk(chunk);
    chunk_ns[chunk] = MonotonicNanos() - start;
  });
  if (!ran) return false;
  const int64_t task_ns = MonotonicNanos() - task_start;
  const auto [min_it, max_it] =
      std::minmax_element(chunk_ns.begin(), chunk_ns.end());
  RecordTiming("parallel.task", task_ns, /*items=*/chunks);
  RecordTiming("parallel.imbalance", *max_it - *min_it, /*items=*/chunks);
  return true;
}

// The chunk count for `units` units of `work_per_unit` work each: min(threads,
// units, total work / kMinWorkPerChunk), with the product saturating rather
// than overflowing. A result <= 1 means the range runs inline.
int64_t ChunkCount(int64_t units, int64_t work_per_unit) {
  SKIPNODE_CHECK(work_per_unit >= 0);
  const int64_t threads = ParallelThreadCount();
  if (units <= 1 || work_per_unit == 0 || threads <= 1) return 1;
  const int64_t by_work =
      units > std::numeric_limits<int64_t>::max() / work_per_unit
          ? std::numeric_limits<int64_t>::max()
          : units * work_per_unit / kMinWorkPerChunk;
  return std::max<int64_t>(1, std::min({threads, units, by_work}));
}

}  // namespace

int ParallelThreadCount() {
  const int forced = thread_count_override.load(std::memory_order_relaxed);
  if (forced >= 1) return forced;
  const int cached = default_thread_count.load(std::memory_order_relaxed);
  if (cached >= 1) return cached;
  const int resolved = ResolveDefaultThreadCount();
  default_thread_count.store(resolved, std::memory_order_relaxed);
  return resolved;
}

void SetParallelThreadCount(int count) {
  SKIPNODE_CHECK(count >= 0);
  thread_count_override.store(count, std::memory_order_relaxed);
  // Dropping the override also re-resolves the default, so tests can change
  // SKIPNODE_NUM_THREADS and observe the new value.
  if (count == 0) default_thread_count.store(0, std::memory_order_relaxed);
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t work_per_element) {
  if (begin >= end) return;
  const int64_t n = end - begin;
  const int64_t chunks = ChunkCount(n, work_per_element);
  // Balanced static partition: the first n % chunks chunks get one extra
  // element. Boundaries depend only on (n, chunks).
  const int64_t base = n / chunks;
  const int64_t extra = n % chunks;
  const bool ran =
      chunks > 1 && !in_parallel_region &&
      RunPoolChunks(static_cast<int>(chunks), [&](int chunk) {
        const int64_t lo =
            begin + chunk * base + std::min<int64_t>(chunk, extra);
        const int64_t hi = lo + base + (chunk < extra ? 1 : 0);
        fn(lo, hi);
      });
  if (!ran) fn(begin, end);
}

void ParallelForBalanced(int64_t n, const int64_t* cost_prefix,
                         const std::function<void(int64_t, int64_t)>& fn,
                         int64_t work_per_cost) {
  if (n <= 0) return;
  SKIPNODE_CHECK(cost_prefix != nullptr);
  const int64_t total = cost_prefix[n] - cost_prefix[0];
  const int64_t chunks = std::min(n, ChunkCount(total, work_per_cost));
  if (chunks <= 1 || in_parallel_region) {
    fn(0, n);
    return;
  }
  // Chunk k owns [bounds[k], bounds[k+1]): the elements whose cumulative
  // cost falls in the k-th equal share of the total. Searching from the
  // previous boundary keeps the bounds monotone when zero-cost elements tie;
  // boundaries depend only on (prefix, n, chunks), never on timing.
  std::vector<int64_t> bounds(static_cast<size_t>(chunks) + 1);
  bounds[0] = 0;
  bounds[static_cast<size_t>(chunks)] = n;
  for (int64_t k = 1; k < chunks; ++k) {
    const int64_t target = cost_prefix[0] + total * k / chunks;
    bounds[static_cast<size_t>(k)] =
        std::lower_bound(cost_prefix + bounds[static_cast<size_t>(k - 1)],
                         cost_prefix + n, target) -
        cost_prefix;
  }
  const bool ran = RunPoolChunks(static_cast<int>(chunks), [&](int chunk) {
    const int64_t lo = bounds[static_cast<size_t>(chunk)];
    const int64_t hi = bounds[static_cast<size_t>(chunk) + 1];
    // A pathologically heavy element can starve its neighbours into empty
    // chunks; they simply do nothing.
    if (lo < hi) fn(lo, hi);
  });
  if (!ran) fn(0, n);
}

}  // namespace skipnode
