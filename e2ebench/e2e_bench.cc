// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end benchmark program: runs one named workload, in its own process,
// through the library's public entry points only —
//
//   DatasetRegistry::Build -> PublicSplit -> MakeModel      (set-up)
//   TrainNodeClassifier, evaluation every epoch             (time to target)
//   FrozenModel::Freeze -> InferenceServer, open-loop load  (serving)
//
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as the last line of stdout, one JSON object. Every layer is
// measured from outside: calls into public functions are timed here, and the
// rest is read from what the program already exposes (SnapshotTelemetry(),
// TrainRun::collect_metrics -> EpochMetrics, ServeStats). README.md has the
// workloads, the metric definitions and the output checks.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE.jsonl]

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "serve/frozen_model.h"
#include "serve/inference_server.h"
#include "tensor/pool.h"
#include "train/trainer.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace skipnode::e2e {
namespace {

// Compute pool width for every workload. The benchmark itself adds at most
// three threads: the generator (main thread), the collector and the writer.
constexpr int kPoolThreads = 4;

// Set-up runs at least kMinSetups times per journey, and more (up to
// kMaxSetups) while the set-ups so far took under kSetupBudgetS; setup_s is
// the median. A 4 ms set-up then gets a median over ~50 runs.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 0.25;

// Training repeats start while this share of --seconds is unspent (at least
// one always runs); the serving phases get the other share.
constexpr double kTrainShare = 0.5;
constexpr int kMaxTrainRepeats = 5;

// Serving phases, as shares of the serving budget. The phases alternate in
// kRounds rounds (read, swap, overload, read, ...), so each phase's samples
// come from several stretches of the run: noisy episodes on the benchmark
// host last seconds, and one then spoils only part of a phase.
constexpr int kPhases = 3;
constexpr const char* kPhaseName[kPhases] = {"read", "swap", "overload"};
constexpr double kPhaseShare[kPhases] = {0.45, 0.45, 0.10};
constexpr int kRounds = 3;

// Tail latency is the median of the p99s of consecutive windows of a phase's
// ok responses, so the sporadic multi-ms VM stalls seen on the benchmark
// host move it only when they hit most windows. Read phase: 30 windows of
// ~22k responses at --seconds 30 (>= 10 beyond each p99 down to
// --seconds 2). Swap phase: one window per writer cycle (re-freeze, swap,
// idle), the phase's unit of work, so each window holds one contended
// stretch.
constexpr int kReadWindows = 30;

// Open-loop traffic, the same for every workload. With one worker the
// logit-gather path completed ~500k req/s on the commit that introduced the
// benchmark (4 vCPUs), so 600k req/s overloads it while staying within what
// one generator thread sends on time. The moderate rate is busy enough that
// the worker and collector rarely park, which keeps VM wake-up jitter out
// of the latencies (at 20k req/s the p99 followed it).
constexpr double kModerateRps = 100000.0;  // read and swap phases
constexpr double kOverloadRps = 600000.0;
constexpr int kOverloadQueueCap = 64;  // shed-newest bound
// Latency limit: the overload deadline and the goodput cut-off.
constexpr int64_t kLimitUs = 5000;

// Open-loop validity: a round whose generator sent its median request more
// than this long after its due time did not offer the scheduled load. It is
// reported invalid and its latencies are left out; its requests were still
// served and checked, so they are not failed ops.
constexpr double kMaxMedianLateUs = 200.0;

// Reconciliation tolerance (traced run): the epoch's phase timers (forward +
// backward + step + health + eval) must cover at least this share of the
// wall time between consecutive on_epoch callbacks, for the median epoch.
constexpr double kReconcileMinShare = 0.90;

// ---------------------------------------------------------------------------
// Workloads.

struct TrainingSpec {
  DatasetRequest data;
  int per_class = 20;  // PublicSplit(per_class, num_val, num_test)
  int num_val = 500;
  int num_test = 1000;
  std::string model;
  int layers = 2;
  StrategyConfig strategy;
  TrainOptions options;
  SamplingOptions sampling;
  // Time to target stops at the first epoch whose val accuracy >= this.
  double target_val = 0.0;
};

struct Workload {
  std::string name;
  TrainingSpec train;
  // Swap-phase writer cadence: one re-freeze + SwapModel starts every
  // period. ~4x the workload's freeze time, so the writer holds the compute
  // pool ~25% of the phase and any backlog a freeze builds drains before
  // the next one.
  int64_t swap_period_ms = 0;
};

// Each workload's training trajectory is pinned (graph, split, init and
// training seed are constants), so time to target compares the same epochs
// on every run and commit, and a numerics change shows as a test_accuracy
// move rather than as noise. --seed drives the serving traffic.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> workloads;

  // The paper's regime: a deep GCN rescued by SkipNode. Dense backward
  // dominates; the graph is too small for set-up or sparse kernels to
  // matter.
  Workload deep{.name = "deep_fullbatch"};
  deep.train.data = {.name = "cora_like", .seed = 1};
  deep.train.model = "ResGCN";
  deep.train.layers = 16;
  deep.train.strategy = StrategyConfig::SkipNodeU(0.7f);
  deep.train.options = {.epochs = 50, .seed = 2};
  deep.train.target_val = 0.80;
  deep.swap_period_ms = 50;  // freeze ~12 ms
  workloads.push_back(deep);

  // Streamed 200k-node graph, sampled training with full-batch evaluation
  // every epoch: graph build, sampler, CsrBuilder blocks, pool churn over
  // unique shapes, and an eval forward that outweighs training.
  Workload sampled{.name = "sampled_large"};
  sampled.train.data = {.name = "synth", .seed = 1, .nodes = 200000,
                        .avg_degree = 20.0};
  sampled.train.per_class = 100;  // 1000 train nodes: 4 batches per epoch
  sampled.train.num_val = 2000;
  sampled.train.num_test = 4000;
  sampled.train.model = "GCN";
  sampled.train.layers = 3;
  sampled.train.strategy = StrategyConfig::SkipNodeU(0.5f);
  sampled.train.options = {.epochs = 8, .seed = 1};
  sampled.train.sampling = {.fanouts = {5, 5, 5}, .batch_size = 256};
  sampled.train.target_val = 0.90;
  sampled.swap_period_ms = 800;  // freeze ~200 ms
  workloads.push_back(sampled);
  return workloads;
}

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

// Median over `windows` consecutive windows of each window's p99.
double WindowedP99(const std::vector<double>& v, int windows) {
  std::vector<double> p99s;
  const size_t n = v.size();
  const size_t w = static_cast<size_t>(windows);
  for (size_t k = 0; k < w; ++k) {
    const size_t begin = n * k / w;
    const size_t end = n * (k + 1) / w;
    if (end > begin) {
      p99s.push_back(Percentile(
          std::vector<double>(v.begin() + begin, v.begin() + end), 0.99));
    }
  }
  return Median(p99s);
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// CPU time consumed by every thread of the process, in nanoseconds. Time the
// hypervisor steals from a vCPU is not charged to the process.
int64_t ProcessCpuNanos() {
  struct timespec ts = {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time one thread of this process has run, from the kernel's schedstat
// (nanoseconds, steal excluded like the process clock); 0 if unreadable.
int64_t ThreadCpuNanos(int tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/schedstat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  long long run_ns = 0;
  const int read = std::fscanf(f, "%lld", &run_ns);
  std::fclose(f);
  return read == 1 ? run_ns : 0;
}

// Ids of this process's threads.
std::vector<int> ThreadIds() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Starts an InferenceServer and returns it with the id of its one worker
// thread (-1 if it cannot be told apart), found as the thread that appeared.
std::unique_ptr<InferenceServer> StartServer(
    std::shared_ptr<const FrozenModel> model, const ServeOptions& options,
    int* worker_tid) {
  const std::vector<int> before = ThreadIds();
  auto server = std::make_unique<InferenceServer>(std::move(model), options);
  std::vector<int> added;
  const std::vector<int> after = ThreadIds();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  *worker_tid = added.size() == 1 ? added.front() : -1;
  return server;
}

// Steal and total CPU ticks of the whole VM (first line of /proc/stat).
struct HostTicks {
  int64_t steal = 0, total = 0;

  static HostTicks Read() {
    HostTicks ticks;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return ticks;
    long long v[8] = {};
    if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      ticks.steal = v[7];
      for (const long long x : v) ticks.total += x;
    }
    std::fclose(f);
    return ticks;
  }
};

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameResult(const TrainResult& a, const TrainResult& b) {
  return SameBits(a.best_val_accuracy, b.best_val_accuracy) &&
         SameBits(a.test_accuracy, b.test_accuracy) &&
         SameBits(a.final_train_loss, b.final_train_loss) &&
         a.best_epoch == b.best_epoch && a.epochs_run == b.epochs_run;
}

// Read-only view of one telemetry snapshot.
struct Telemetry {
  TelemetrySnapshot snap;

  static Telemetry Take() { return {SnapshotTelemetry()}; }
  int64_t Ns(const char* name) const {
    const MetricStat* s = snap.Find(name);
    return s != nullptr ? s->total_ns : 0;
  }
  int64_t Count(const char* name) const {
    const MetricStat* s = snap.Find(name);
    return s != nullptr ? s->count : 0;
  }
  int64_t Items(const char* name) const {
    const MetricStat* s = snap.Find(name);
    return s != nullptr ? s->items : 0;
  }
  int64_t SumNs(const std::vector<const char*>& names) const {
    int64_t total = 0;
    for (const char* name : names) total += Ns(name);
    return total;
  }
};

// Ordered name -> (value, unit) list: the result's "metrics" object.
class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  double Get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.value;
    }
    return 0.0;
  }
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (const Entry& e : entries_) names.push_back(e.name);
    return names;
  }
  const char* Unit(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.unit;
    }
    return "";
  }
  std::string ToJson() const {
    std::string out = "{";
    char value[40];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      out += (i > 0 ? ", \"" : "\"") + entries_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Spans around each public call, kept in memory and written out at the end
// of a traced run (one JSON object per line).

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Records a finished span; returns its id (-1 when disabled).
  int64_t Add(const char* name, int64_t parent, int64_t key, int64_t start_ns,
              int64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, key, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Opens a span whose end is set later by Close().
  int64_t Open(const char* name, int64_t parent) {
    const int64_t now = MonotonicNanos();
    return Add(name, parent, -1, now, now);
  }
  void Close(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = MonotonicNanos();
  }

  // One JSON object per line: the stamp, then {"id", "name", "parent",
  // "key", "start_ns", "end_ns"} per span, times relative to the first span.
  bool Write(const std::string& path, const std::string& stamp) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"stamp\": %s}\n", stamp.c_str());
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"key\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, static_cast<long long>(s.parent),
                   static_cast<long long>(s.key),
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin));
    }
    return std::fclose(f) == 0;
  }
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t parent;  // -1 for a root
    int64_t key;     // repeat, epoch or request id; -1 if none
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// Ops attempted and failed, plus the output checks.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void Fail(int64_t count, const std::string& why) {
    if (count <= 0) return;
    failed += count;
    notes.push_back(std::to_string(count) + " failed: " + why);
  }
  void Mismatch(const std::string& why) {
    correct = false;
    notes.push_back("OUTPUT CHECK FAILED: " + why);
  }
};

// ---------------------------------------------------------------------------
// Open-loop traffic.

struct Request {
  int64_t due_offset_ns = 0;  // from phase start
  std::vector<int> ids;
};

// Seeded Poisson arrivals over `duration_ns`: 90% of requests ask for 4
// uniform node ids, 10% for 64.
std::vector<Request> MakeSchedule(uint64_t seed, double rate_rps,
                                  int64_t duration_ns, int num_nodes) {
  Rng rng(seed);
  std::vector<Request> schedule;
  double t_ns = 0.0;
  for (;;) {
    t_ns += -std::log(1.0 - rng.Uniform()) / rate_rps * 1e9;
    if (t_ns >= static_cast<double>(duration_ns)) break;
    Request request{.due_offset_ns = static_cast<int64_t>(t_ns)};
    request.ids.resize(rng.Uniform() < 0.9 ? 4 : 64);
    for (int& id : request.ids) {
      id = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
    }
    schedule.push_back(std::move(request));
  }
  return schedule;
}

// Sleeps until `deadline_ns` (MonotonicNanos clock), yielding through the
// last 80 us so high-rate schedules are sent on time. (Sleeping closer to
// the deadline cut the overload phase's throughput to a quarter: the
// generator's core went idle between sends.)
void WaitUntil(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 80'000;
  for (;;) {
    const int64_t remaining = deadline_ns - MonotonicNanos();
    if (remaining <= 0) return;
    if (remaining > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(remaining - kSpinNs));
    } else {
      std::this_thread::yield();
    }
  }
}

struct SwapEvent {
  int64_t freeze_start_ns, freeze_end_ns, swap_end_ns;
};

// The raw record of one phase, released once the phase is summarised.
struct Traffic {
  std::vector<Request> schedule;
  std::vector<int64_t> due_ns, send_ns, done_ns;
  std::vector<PredictionHandle> handles;
  std::vector<SwapEvent> swaps;  // phase-2 writer
};

// Server-side view of one round, from ServeStats at its edges.
struct RoundEdges {
  ServeStats before, after;
  int64_t depth_end = 0;  // queue depth when the schedule ended
};

// What a phase leaves behind for the metrics, summed over its rounds.
struct PhaseResult {
  int64_t planned_ns = 0;  // valid rounds only
  int64_t requests = 0;
  int64_t status_count[6] = {};  // indexed by ServeStatus
  std::vector<double> ok_ms;     // due -> resolved; valid rounds, in order
  std::vector<double> late_us;   // sent - due
  int64_t server_requests = 0, server_batches = 0;  // ServeStats deltas
  int64_t queue_peak = 0;
  int64_t backlog_growth = 0;  // max over rounds of the depth gained
  int64_t swaps = 0;
  int64_t invalid_rounds = 0;  // generator ran late
  int64_t batch_ns = 0, batch_count = 0;  // traced: serve.batch timer
  int64_t worker_cpu_ns = 0;  // the server worker thread's CPU time

  int64_t Count(ServeStatus status) const {
    return status_count[static_cast<int>(status)];
  }
};

using Writer = std::function<void(const std::atomic<bool>& stop,
                                  std::vector<SwapEvent>* events)>;

// One phase: the calling thread is the open-loop generator (it never waits
// on a response), one collector thread waits on the handles in submission
// order, and an optional writer thread runs until the schedule ends.
void RunPhase(InferenceServer& server, const Writer& writer,
              int64_t planned_ns, Traffic* t, RoundEdges* edges) {
  const size_t n = t->schedule.size();
  t->due_ns.assign(n, 0);
  t->send_ns.assign(n, 0);
  t->done_ns.assign(n, 0);
  t->handles.assign(n, PredictionHandle());
  edges->before = server.stats();

  std::mutex mu;
  std::condition_variable cv;
  size_t published = 0;  // guarded by mu
  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      t->handles[i].status();  // blocks until resolved
      t->done_ns[i] = MonotonicNanos();
    }
  });
  std::atomic<bool> stop{false};
  std::thread writer_thread;
  if (writer) writer_thread = std::thread([&] { writer(stop, &t->swaps); });

  const int64_t start_ns = MonotonicNanos() + 1'000'000;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start_ns + t->schedule[i].due_offset_ns;
    WaitUntil(due);
    t->due_ns[i] = due;
    t->send_ns[i] = MonotonicNanos();
    PredictionHandle handle = server.Submit(t->schedule[i].ids);
    {
      std::lock_guard<std::mutex> lock(mu);
      t->handles[i] = std::move(handle);
      published = i + 1;
    }
    cv.notify_one();
  }
  WaitUntil(start_ns + planned_ns);
  edges->depth_end = server.stats().queue_depth;
  stop.store(true);
  if (writer_thread.joinable()) writer_thread.join();
  collector.join();
  edges->after = server.stats();
}

double SwapP99(const PhaseResult& swap) {
  return WindowedP99(swap.ok_ms,
                     static_cast<int>(std::max<int64_t>(1, swap.swaps)));
}

// ---------------------------------------------------------------------------
// One journey: set-up, training to target, freeze, three serving phases.

struct TrainOutcome {
  TrainResult result;
  int64_t start_ns = 0, end_ns = 0;
  std::vector<int64_t> epoch_ns;  // on_epoch callback times
  int64_t start_cpu_ns = 0;
  std::vector<int64_t> epoch_cpu_ns;  // process CPU time at each callback
  std::vector<double> val;
  double time_to_target_s = -1.0;  // < 0: target missed
  double time_to_target_cpu_s = -1.0;
  int64_t pool_retained_bytes = 0;  // traced: pool growth over the repeat
};

struct JourneyData {
  bool traced = false;
  std::vector<double> setup_s, setup_cpu_s, build_s;
  HostTicks host_start, host_end;
  Telemetry setup_telemetry;  // traced: the last set-up
  std::vector<TrainOutcome> repeats;
  Telemetry train_telemetry;  // traced: all training repeats
  std::vector<double> freeze_ms;
  PhaseResult phases[kPhases];
};

class Journey {
 public:
  Journey(const Workload& workload, uint64_t seed, double seconds,
          bool traced, Ledger* ledger, SpanLog* spans)
      : w_(workload),
        seed_(seed),
        seconds_(seconds),
        ledger_(ledger),
        spans_(spans) {
    data_.traced = traced;
  }

  JourneyData Run() {
    data_.host_start = HostTicks::Read();
    SetTelemetryEnabled(data_.traced);
    root_ = spans_->Open(data_.traced ? "journey_traced" : "journey", -1);
    RunSetups();
    RunTraining();
    RunServing();
    spans_->Close(root_);
    SetTelemetryEnabled(false);
    data_.host_end = HostTicks::Read();
    return std::move(data_);
  }

 private:
  void RunSetups();
  TrainOutcome TrainOnce();
  void RunTraining();
  void RunServing();
  void Summarize(int p, int64_t planned_ns, const Traffic& t,
                 const RoundEdges& edges, int64_t span);

  const Workload& w_;
  const uint64_t seed_;
  const double seconds_;
  Ledger* const ledger_;
  SpanLog* const spans_;
  int64_t root_ = -1;

  std::unique_ptr<Graph> graph_;
  Split split_;
  ModelConfig config_;
  std::unique_ptr<Model> model_a_;  // the last trained model
  std::shared_ptr<const FrozenModel> frozen_a_, frozen_b_;
  JourneyData data_;
};

void Journey::RunSetups() {
  const TrainingSpec& spec = w_.train;
  const int64_t span = spans_->Open("setup", root_);
  double spent_s = 0.0;
  for (int r = 0; r < kMaxSetups; ++r) {
    if (r >= kMinSetups && spent_s >= kSetupBudgetS) break;
    graph_.reset();  // one graph resident at a time
    if (data_.traced) ResetTelemetry();
    const int64_t cpu0 = ProcessCpuNanos();
    const int64_t t0 = MonotonicNanos();
    graph_ =
        std::make_unique<Graph>(DatasetRegistry::Global().Build(spec.data));
    const int64_t t1 = MonotonicNanos();
    Rng split_rng(spec.options.seed);
    split_ = PublicSplit(*graph_, spec.per_class, spec.num_val, spec.num_test,
                         split_rng);
    const int64_t t2 = MonotonicNanos();
    config_ = ModelConfig{.in_dim = graph_->feature_dim(),
                          .hidden_dim = 32,
                          .out_dim = graph_->num_classes(),
                          .num_layers = spec.layers};
    Rng init_rng(spec.options.seed);
    const std::unique_ptr<Model> model =
        MakeModel(spec.model, config_, init_rng);
    const int64_t t3 = MonotonicNanos();
    data_.setup_cpu_s.push_back(static_cast<double>(ProcessCpuNanos() - cpu0) /
                                1e9);
    if (data_.traced) data_.setup_telemetry = Telemetry::Take();
    data_.build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    data_.setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    spent_s += data_.setup_s.back();
    spans_->Add("dataset_registry_build", span, r, t0, t1);
    spans_->Add("public_split", span, r, t1, t2);
    spans_->Add("make_model", span, r, t2, t3);
  }
  spans_->Close(span);
}

// One repeat, as a user runs it: a fresh model from the pinned seed, then
// TrainNodeClassifier with evaluation every epoch.
TrainOutcome Journey::TrainOnce() {
  const TrainingSpec& spec = w_.train;
  TrainOutcome out;
  Rng init_rng(spec.options.seed);
  model_a_ = MakeModel(spec.model, config_, init_rng);
  TrainRun run{.options = spec.options,
               .collect_metrics = data_.traced,
               .sampling = spec.sampling};
  run.options.eval_every = 1;
  out.epoch_ns.reserve(static_cast<size_t>(spec.options.epochs));
  out.val.reserve(static_cast<size_t>(spec.options.epochs));
  run.on_epoch = [&out](int, double, double val_accuracy, double) {
    out.epoch_ns.push_back(MonotonicNanos());
    out.epoch_cpu_ns.push_back(ProcessCpuNanos());
    out.val.push_back(val_accuracy);
  };
  const int64_t retained_before =
      data_.traced ? Telemetry::Take().Items("pool.bytes_retained") : 0;
  out.start_cpu_ns = ProcessCpuNanos();
  out.start_ns = MonotonicNanos();
  out.result =
      TrainNodeClassifier(*model_a_, *graph_, split_, spec.strategy, run);
  out.end_ns = MonotonicNanos();
  if (data_.traced) {
    out.pool_retained_bytes =
        Telemetry::Take().Items("pool.bytes_retained") - retained_before;
  }
  for (size_t i = 0; i < out.val.size(); ++i) {
    if (out.val[i] >= spec.target_val) {
      out.time_to_target_s =
          static_cast<double>(out.epoch_ns[i] - out.start_ns) / 1e9;
      out.time_to_target_cpu_s =
          static_cast<double>(out.epoch_cpu_ns[i] - out.start_cpu_ns) / 1e9;
      break;
    }
  }
  return out;
}

void Journey::RunTraining() {
  const int64_t budget_ns = static_cast<int64_t>(seconds_ * kTrainShare * 1e9);
  const int64_t span = spans_->Open("train", root_);
  const int64_t begin_ns = MonotonicNanos();
  {
    // An untimed warm-up (the same run, in full): the first training in a
    // process runs ~10-35% slower (fresh pages; glibc raises its mmap
    // threshold only after the first large frees), which would otherwise
    // dominate the spread of time_to_target.
    const int64_t t0 = MonotonicNanos();
    TrainOnce();
    GlobalMatrixPool().Trim();
    spans_->Add("warmup", span, -1, t0, MonotonicNanos());
  }
  if (data_.traced) ResetTelemetry();
  int64_t longest_ns = 0;
  for (int r = 0; r < kMaxTrainRepeats; ++r) {
    if (r > 0 && MonotonicNanos() - begin_ns + longest_ns > budget_ns) break;
    TrainOutcome out = TrainOnce();
    longest_ns = std::max(longest_ns, out.end_ns - out.start_ns);
    const int64_t run_span =
        spans_->Add("train_node_classifier", span, r, out.start_ns, out.end_ns);
    int64_t prev = out.start_ns;
    for (size_t e = 0; e < out.epoch_ns.size(); ++e) {
      spans_->Add("epoch", run_span, static_cast<int64_t>(e), prev,
                  out.epoch_ns[e]);
      prev = out.epoch_ns[e];
    }
    ++ledger_->attempted;
    if (out.time_to_target_s < 0.0) {
      ledger_->Fail(1, "training missed the val target");
    }
    ledger_->Fail(out.result.rollbacks, "training rollback");
    for (const HealthEvent& event : out.result.health_log) {
      if (event.kind == HealthEventKind::kRecoveryExhausted) {
        ledger_->Fail(1, "training halted");
      }
    }
    if (!data_.repeats.empty() &&
        !SameResult(out.result, data_.repeats.front().result)) {
      ledger_->Mismatch("training repeats at one seed returned different "
                        "TrainResults");
    }
    data_.repeats.push_back(std::move(out));
    // Each repeat is a fresh user run; its pooled workspaces go with it.
    GlobalMatrixPool().Trim();
  }
  if (data_.traced) data_.train_telemetry = Telemetry::Take();
  spans_->Close(span);
}

// Folds one finished round into its phase's PhaseResult, records its
// request spans, updates the ledger and checks its responses: every ok
// response must equal FrozenModel::Logits of a snapshot the server held (A,
// or B in the swap phase), bit for bit. A round whose generator ran late is
// invalid: its latencies and duration stay out of the metrics.
void Journey::Summarize(int p, int64_t planned_ns, const Traffic& t,
                        const RoundEdges& edges, int64_t span) {
  PhaseResult& phase = data_.phases[p];
  const size_t n = t.handles.size();
  const int64_t requests = static_cast<int64_t>(n);
  phase.requests += requests;
  phase.swaps += static_cast<int64_t>(t.swaps.size());
  phase.server_requests += edges.after.requests - edges.before.requests;
  phase.server_batches += edges.after.batches - edges.before.batches;
  phase.queue_peak = std::max(phase.queue_peak, edges.after.queue_peak);
  phase.backlog_growth = std::max(
      phase.backlog_growth, edges.depth_end - edges.before.queue_depth);
  std::vector<double> late(n);
  for (size_t i = 0; i < n; ++i) late[i] = Us(t.send_ns[i] - t.due_ns[i]);
  const bool valid = Median(late) <= kMaxMedianLateUs;
  if (valid) phase.planned_ns += planned_ns;
  int64_t counts[6] = {};
  int64_t mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    const ServeStatus status = t.handles[i].status();
    ++counts[static_cast<int>(status)];
    spans_->Add("request", span, static_cast<int64_t>(i), t.send_ns[i],
                t.done_ns[i]);
    if (status != ServeStatus::kOk) continue;
    if (valid) phase.ok_ms.push_back(Ms(t.done_ns[i] - t.due_ns[i]));
    const Matrix& got = t.handles[i].logits();
    const std::vector<int>& ids = t.schedule[i].ids;
    mismatches += !BitwiseEqual(got, frozen_a_->Logits(ids)) &&
                  !(p == 1 && BitwiseEqual(got, frozen_b_->Logits(ids)));
  }
  for (size_t k = 0; k < t.swaps.size(); ++k) {
    const SwapEvent& e = t.swaps[k];
    spans_->Add("freeze", span, static_cast<int64_t>(k), e.freeze_start_ns,
                e.freeze_end_ns);
    spans_->Add("swap_model", span, static_cast<int64_t>(k), e.freeze_end_ns,
                e.swap_end_ns);
    data_.freeze_ms.push_back(Ms(e.freeze_end_ns - e.freeze_start_ns));
  }

  for (int k = 0; k < 6; ++k) phase.status_count[k] += counts[k];
  phase.late_us.insert(phase.late_us.end(), late.begin(), late.end());

  ledger_->attempted += requests;
  const std::string where = std::string(" in phase ") + kPhaseName[p];
  if (mismatches > 0) {
    ledger_->Mismatch(std::to_string(mismatches) +
                      " ok responses differ from every snapshot" + where);
  }
  if (!valid) {
    ++phase.invalid_rounds;
    ledger_->notes.push_back("INVALID round" + where +
                             ": generator ran late, latencies left out");
  }
  // Sheds and expiries are the overload phase's designed response: they
  // count as goodput misses, not as failures. Anything else non-ok fails.
  const auto count = [&](ServeStatus status) {
    return counts[static_cast<int>(status)];
  };
  ledger_->Fail(count(ServeStatus::kInvalidArgument),
                "kInvalidArgument" + where);
  ledger_->Fail(count(ServeStatus::kShutdown), "kShutdown" + where);
  if (p != 2) {
    ledger_->Fail(count(ServeStatus::kRejected), "kRejected" + where);
    ledger_->Fail(count(ServeStatus::kDeadlineExceeded),
                  "kDeadlineExceeded" + where);
  }
}

void Journey::RunServing() {
  const StrategyConfig& strategy = w_.train.strategy;
  const Graph& graph = *graph_;
  // Snapshots: the trained model (A) and an untrained twin (B) that the
  // phase-2 writer alternates with A.
  Rng init_rng(w_.train.options.seed + 1);
  const std::unique_ptr<Model> model_b =
      MakeModel(w_.train.model, config_, init_rng);
  const auto freeze = [&](Model& model, int key) {
    const int64_t t0 = MonotonicNanos();
    auto frozen = std::make_shared<const FrozenModel>(
        FrozenModel::Freeze(model, graph, strategy));
    const int64_t t1 = MonotonicNanos();
    spans_->Add("freeze", root_, key, t0, t1);
    data_.freeze_ms.push_back(Ms(t1 - t0));
    return frozen;
  };
  frozen_a_ = freeze(*model_a_, 0);
  frozen_b_ = freeze(*model_b, 1);
  GlobalMatrixPool().Trim();

  const double serve_s = seconds_ * (1.0 - kTrainShare);
  const ServeOptions read_options{.workers = 1, .batch_window_us = 500};
  const ServeOptions overload_options{
      .workers = 1,
      .batch_window_us = 500,
      .max_queue_requests = kOverloadQueueCap,
      .overload_policy = OverloadPolicy::kShedNewest,
      .default_deadline_us = kLimitUs};
  // Read and swap rounds share a server (unbounded queue, no deadline);
  // overload rounds use a bounded, deadline-armed one.
  int read_tid = -1, overload_tid = -1;
  const std::unique_ptr<InferenceServer> read_server =
      StartServer(frozen_a_, read_options, &read_tid);
  const std::unique_ptr<InferenceServer> overload_server =
      StartServer(frozen_a_, overload_options, &overload_tid);
  if (read_tid < 0 || overload_tid < 0) {
    ledger_->Mismatch("could not identify the server worker threads");
  }
  for (int i = 0; i < kRounds * kPhases; ++i) {
    const int p = i % kPhases;
    const int r = i / kPhases;
    InferenceServer& server = p == 2 ? *overload_server : *read_server;
    const int worker_tid = p == 2 ? overload_tid : read_tid;
    PhaseResult& phase = data_.phases[p];
    const int64_t planned_ns =
        static_cast<int64_t>(serve_s * kPhaseShare[p] / kRounds * 1e9);
    Traffic traffic;
    traffic.schedule = MakeSchedule(
        seed_ * 1000003ULL + static_cast<uint64_t>(p * kRounds + r),
        p < 2 ? kModerateRps : kOverloadRps, planned_ns,
        frozen_a_->num_nodes());
    Writer writer;
    if (p == 1) {
      InferenceServer* target = read_server.get();
      writer = [&, target](const std::atomic<bool>& stop,
                           std::vector<SwapEvent>* events) {
        for (int k = 0; !stop.load(); ++k) {
          Model& source = k % 2 == 0 ? *model_b : *model_a_;
          SwapEvent event{};
          event.freeze_start_ns = MonotonicNanos();
          auto snapshot = std::make_shared<const FrozenModel>(
              FrozenModel::Freeze(source, graph, strategy));
          event.freeze_end_ns = MonotonicNanos();
          target->SwapModel(std::move(snapshot));
          event.swap_end_ns = MonotonicNanos();
          events->push_back(event);
          const int64_t next =
              event.freeze_start_ns + w_.swap_period_ms * 1'000'000;
          while (!stop.load() && MonotonicNanos() < next) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      };
    }
    const int64_t span = spans_->Open(kPhaseName[p], root_);
    if (data_.traced) ResetTelemetry();
    RoundEdges edges;
    const int64_t worker_cpu0 = ThreadCpuNanos(worker_tid);
    RunPhase(server, writer, planned_ns, &traffic, &edges);
    phase.worker_cpu_ns += ThreadCpuNanos(worker_tid) - worker_cpu0;
    if (data_.traced) {
      const Telemetry t = Telemetry::Take();
      phase.batch_ns += t.Ns("serve.batch");
      phase.batch_count += t.Count("serve.batch");
    }
    spans_->Close(span);
    // Read rounds serve A only; undo the writer's last swap before the next.
    if (p == 1) read_server->SwapModel(frozen_a_);
    Summarize(p, planned_ns, traffic, edges, span);
  }
}

// ---------------------------------------------------------------------------
// Metrics.

std::vector<double> EpochGapsMs(const JourneyData& d) {
  std::vector<double> gaps;
  for (const TrainOutcome& r : d.repeats) {
    for (size_t e = 1; e < r.epoch_ns.size(); ++e) {
      gaps.push_back(Ms(r.epoch_ns[e] - r.epoch_ns[e - 1]));
    }
  }
  return gaps;
}

// A repeat's time to target; a missed target (already a failed op) reads as
// the whole run.
double TimeToTarget(const TrainOutcome& r, bool cpu) {
  if (r.time_to_target_s >= 0.0) {
    return cpu ? r.time_to_target_cpu_s : r.time_to_target_s;
  }
  const int64_t end = cpu ? r.epoch_cpu_ns.back() : r.end_ns;
  return static_cast<double>(end - (cpu ? r.start_cpu_ns : r.start_ns)) / 1e9;
}

// The bounded end-to-end metrics, in process CPU time: on a shared VM the
// wall clock follows the host's load (README.md), while the CPU a run
// consumes follows the code.
void EndToEnd(const JourneyData& d, MetricList* m) {
  m->Add("setup_s", Median(d.setup_cpu_s), "s");
  std::vector<double> ttt, gaps;
  for (const TrainOutcome& r : d.repeats) {
    ttt.push_back(TimeToTarget(r, /*cpu=*/true));
    for (size_t e = 1; e < r.epoch_cpu_ns.size(); ++e) {
      gaps.push_back(Ms(r.epoch_cpu_ns[e] - r.epoch_cpu_ns[e - 1]));
    }
  }
  m->Add("time_to_target_cpu_s", Median(ttt), "s");
  m->Add("epoch_cpu_ms", Median(gaps), "ms");
  m->Add("test_accuracy", 100.0 * d.repeats.front().result.test_accuracy, "%");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// The same journey on the wall clock (what a user on an idle machine waits),
// and the server's CPU cost per request. Both follow the host's load and
// scheduling, so they are reported unbounded.
void WallClock(const JourneyData& d, MetricList* m) {
  m->Add("wall.setup_s", Median(d.setup_s), "s");
  std::vector<double> ttt;
  for (const TrainOutcome& r : d.repeats) {
    ttt.push_back(TimeToTarget(r, /*cpu=*/false));
  }
  m->Add("wall.time_to_target_s", Median(ttt), "s");
  m->Add("wall.epoch_ms", Median(EpochGapsMs(d)), "ms");
  m->Add("wall.serve_p50_ms", Percentile(d.phases[0].ok_ms, 0.50), "ms");
  const PhaseResult& read = d.phases[0];
  m->Add("serve.cpu_us_per_request",
         Share(Us(read.worker_cpu_ns),
               static_cast<double>(read.Count(ServeStatus::kOk))),
         "us");
  const PhaseResult& over = d.phases[2];
  const double limit_ms = static_cast<double>(kLimitUs) / 1e3;
  int64_t good = 0;
  for (const double ms : over.ok_ms) good += ms <= limit_ms;
  m->Add("wall.serve_goodput_rps",
         Share(static_cast<double>(good),
               static_cast<double>(over.planned_ns) / 1e9),
         "req/s");
  m->Add("host.steal_share",
         Share(static_cast<double>(d.host_end.steal - d.host_start.steal),
               static_cast<double>(d.host_end.total - d.host_start.total)),
         "ratio");
}

const std::vector<const char*>& ElementwiseTimers() {
  static const std::vector<const char*> kNames = {
      "tensor.relu",          "tensor.relu_backward", "tensor.copy_rows_where",
      "tensor.add_rows_where", "tensor.gather_rows",  "tensor.row_softmax",
      "tensor.row_log_softmax"};
  return kNames;
}

// Disjoint kernel timers that run inside the trainer's phases; their sum
// may not exceed the phases' sum. (autograd.spmm_backward wraps
// sparse.spmm_t and sampler.sample wraps sparse.csr_build, so those two
// wrappers' children are not added again.)
const std::vector<const char*>& PhaseKernelTimers() {
  static const std::vector<const char*> kNames = {
      "sparse.spmm",    "sparse.spmm_masked", "sparse.spmm_t",
      "sparse.spmm_t_masked", "tensor.gemm", "tensor.gemm_tb",
      "tensor.gemm_ta", "tensor.relu",        "tensor.relu_backward",
      "tensor.copy_rows_where", "tensor.add_rows_where",
      "tensor.gather_rows",     "tensor.row_softmax",
      "tensor.row_log_softmax", "sampler.sample", "train.adam_step"};
  return kNames;
}

void Layers(const JourneyData& d, Ledger* ledger, MetricList* m) {
  const Telemetry& t = d.train_telemetry;
  int64_t epochs = 0;
  std::vector<double> fwd, bwd, step, eval, phases_ms, unattributed, covered;
  for (const TrainOutcome& r : d.repeats) {
    epochs += r.result.epochs_run;
    const std::vector<EpochMetrics>& em = r.result.epoch_metrics;
    for (size_t e = 0; e < em.size(); ++e) {
      const int64_t phase_ns = em[e].forward_ns + em[e].backward_ns +
                               em[e].step_ns + em[e].health_ns +
                               em[e].eval_ns;
      fwd.push_back(Ms(em[e].forward_ns));
      bwd.push_back(Ms(em[e].backward_ns));
      step.push_back(Ms(em[e].step_ns));
      eval.push_back(Ms(em[e].eval_ns));
      phases_ms.push_back(Ms(phase_ns));
      if (e >= 1 && e < r.epoch_ns.size()) {
        const int64_t gap = r.epoch_ns[e] - r.epoch_ns[e - 1];
        unattributed.push_back(Ms(gap - phase_ns));
        covered.push_back(Share(static_cast<double>(phase_ns),
                                static_cast<double>(gap)));
      }
    }
  }
  const double per_epoch =
      1.0 / static_cast<double>(std::max<int64_t>(1, epochs));
  const auto epoch_ms = [&](int64_t ns) { return Ms(ns) * per_epoch; };

  // graph
  m->Add("graph.build_s", Median(d.build_s), "s");
  m->Add("graph.sample_ms", epoch_ms(t.Ns("sampler.sample")), "ms");
  const double pruned = static_cast<double>(t.Items("sampler.edges_pruned"));
  m->Add("graph.pruned_edge_share",
         Share(pruned,
               pruned + static_cast<double>(t.Items("sparse.csr_build"))),
         "ratio");
  // core
  m->Add("core.rows_skipped_share",
         Share(static_cast<double>(t.Items("spmm.rows_skipped")),
               static_cast<double>(t.Items("sparse.spmm_masked"))),
         "ratio");
  // sparse
  m->Add("sparse.spmm_ms", epoch_ms(t.Ns("sparse.spmm")), "ms");
  m->Add("sparse.spmm_masked_ms", epoch_ms(t.Ns("sparse.spmm_masked")), "ms");
  m->Add("sparse.spmm_t_ms", epoch_ms(t.Ns("sparse.spmm_t")), "ms");
  m->Add("sparse.spmm_t_masked_ms", epoch_ms(t.Ns("sparse.spmm_t_masked")),
         "ms");
  m->Add("sparse.csr_build_ms", epoch_ms(t.Ns("sparse.csr_build")), "ms");
  m->Add("sparse.csr_build_setup_ms",
         Ms(d.setup_telemetry.Ns("sparse.csr_build")), "ms");
  // tensor
  m->Add("tensor.gemm_ms", epoch_ms(t.Ns("tensor.gemm")), "ms");
  m->Add("tensor.gemm_tb_ms", epoch_ms(t.Ns("tensor.gemm_tb")), "ms");
  m->Add("tensor.gemm_ta_ms", epoch_ms(t.Ns("tensor.gemm_ta")), "ms");
  m->Add("tensor.elementwise_ms", epoch_ms(t.SumNs(ElementwiseTimers())), "ms");
  const double hits = static_cast<double>(t.Count("pool.hit"));
  m->Add("tensor.pool_hit_share",
         Share(hits, hits + static_cast<double>(t.Count("pool.miss"))),
         "ratio");
  std::vector<double> retained;
  for (const TrainOutcome& r : d.repeats) {
    retained.push_back(static_cast<double>(r.pool_retained_bytes) / 1048576.0);
  }
  m->Add("tensor.pool_retained_mb", Median(retained), "MB");
  // autograd
  m->Add("autograd.spmm_backward_ms",
         epoch_ms(t.Ns("autograd.spmm_backward") +
                  t.Ns("autograd.spmm_rowselect_backward")),
         "ms");
  // train (EpochMetrics medians) and the reconciliation
  m->Add("train.forward_ms", Median(fwd), "ms");
  m->Add("train.backward_ms", Median(bwd), "ms");
  m->Add("train.step_ms", Median(step), "ms");
  m->Add("train.eval_ms", Median(eval), "ms");
  m->Add("train.eval_share", Share(Median(eval), Median(phases_ms)), "ratio");
  m->Add("train.unattributed_ms", Median(unattributed), "ms");
  const double reconcile = Median(covered);
  m->Add("train.reconcile_share", reconcile, "ratio");
  const double phase_total =
      static_cast<double>(t.Ns("train.forward") + t.Ns("train.backward") +
                          t.Ns("train.step") + t.Ns("train.health") +
                          t.Ns("train.eval"));
  const double kernel_share =
      Share(static_cast<double>(t.SumNs(PhaseKernelTimers())), phase_total);
  m->Add("train.kernel_share", kernel_share, "ratio");
  if (reconcile < kReconcileMinShare || reconcile > 1.0) {
    ledger->Mismatch("epoch phases cover " + std::to_string(reconcile) +
                     " of the on_epoch wall time (tolerance " +
                     std::to_string(kReconcileMinShare) + ")");
  }
  if (kernel_share > 1.0) {
    ledger->Mismatch("kernel timers sum to " + std::to_string(kernel_share) +
                     " of their phases");
  }
  // base
  m->Add("parallel.imbalance_share",
         Share(static_cast<double>(t.Ns("parallel.imbalance")),
               static_cast<double>(t.Ns("parallel.task"))),
         "ratio");
  // serve
  const PhaseResult& read = d.phases[0];
  const PhaseResult& over = d.phases[2];
  // Tail latencies: unbounded here because on a shared 4-vCPU VM they
  // follow the host's scheduling noise (README.md).
  m->Add("serve.p99_ms", WindowedP99(read.ok_ms, kReadWindows), "ms");
  m->Add("serve.swap_p99_ms", SwapP99(d.phases[1]), "ms");
  m->Add("serve.freeze_ms", Median(d.freeze_ms), "ms");
  const double batch_us =
      Share(Us(read.batch_ns), static_cast<double>(read.batch_count));
  m->Add("serve.batch_us", batch_us, "us");
  const auto per_batch = [](const PhaseResult& p) {
    return Share(static_cast<double>(p.server_requests),
                 static_cast<double>(p.server_batches));
  };
  m->Add("serve.requests_per_batch", per_batch(read), "count");
  m->Add("serve.overload_requests_per_batch", per_batch(over), "count");
  m->Add("serve.queue_peak", static_cast<double>(read.queue_peak),
         "count");
  m->Add("serve.shed_share",
         Share(static_cast<double>(over.Count(ServeStatus::kRejected)),
               static_cast<double>(over.requests)),
         "ratio");
  m->Add("serve.queue_wait_us", 1e3 * Percentile(read.ok_ms, 0.5) - batch_us,
         "us");
  double late_p50 = 0.0, late_max = 0.0, backlog = 0.0;
  for (int p = 0; p < kPhases; ++p) {
    late_p50 = std::max(late_p50, Median(d.phases[p].late_us));
    late_max = std::max(late_max, Max(d.phases[p].late_us));
    if (p < 2) {
      backlog = std::max(backlog,
                         static_cast<double>(d.phases[p].backlog_growth));
    }
  }
  m->Add("serve.gen_late_p50_us", late_p50, "us");
  m->Add("serve.gen_late_max_us", late_max, "us");
  m->Add("serve.backlog_growth", backlog, "count");
  m->Add("serve.invalid_rounds",
         static_cast<double>(d.phases[0].invalid_rounds +
                             d.phases[1].invalid_rounds +
                             d.phases[2].invalid_rounds),
         "count");
}

// ---------------------------------------------------------------------------
// Reporting.

void PrintJourney(const JourneyData& d, const Workload& w) {
  std::printf("[%s] set-up %s: median %.3f s over %zu (build %.3f s)\n",
              w.name.c_str(), d.traced ? "traced" : "untraced",
              Median(d.setup_s), d.setup_s.size(), Median(d.build_s));
  for (size_t r = 0; r < d.repeats.size(); ++r) {
    const TrainOutcome& o = d.repeats[r];
    std::printf(
        "  train repeat %zu: %d epochs in %.2f s, target val %.2f %s%.3f s, "
        "best val %.4f @%d, test %.4f\n",
        r, o.result.epochs_run,
        static_cast<double>(o.end_ns - o.start_ns) / 1e9,
        w.train.target_val, o.time_to_target_s >= 0 ? "at " : "MISSED ",
        o.time_to_target_s, o.result.best_val_accuracy, o.result.best_epoch,
        o.result.test_accuracy);
  }
  for (int p = 0; p < kPhases; ++p) {
    const PhaseResult& ph = d.phases[p];
    const std::vector<double>& lat = ph.ok_ms;
    const std::vector<double>& late = ph.late_us;
    std::printf(
        "  phase %-8s %7lld req over %.1f s: ok %lld rejected %lld deadline "
        "%lld invalid %lld shutdown %lld | p50 %.3f p99 %.3f (windowed %.3f) "
        "ms | late p50 %.1f max %.1f us | backlog +%lld | swaps %lld%s\n",
        kPhaseName[p], static_cast<long long>(ph.requests),
        static_cast<double>(ph.planned_ns) / 1e9,
        static_cast<long long>(ph.Count(ServeStatus::kOk)),
        static_cast<long long>(ph.Count(ServeStatus::kRejected)),
        static_cast<long long>(ph.Count(ServeStatus::kDeadlineExceeded)),
        static_cast<long long>(ph.Count(ServeStatus::kInvalidArgument)),
        static_cast<long long>(ph.Count(ServeStatus::kShutdown)),
        Percentile(lat, 0.5), Percentile(lat, 0.99),
        p == 1 ? SwapP99(ph) : WindowedP99(lat, kReadWindows), Median(late),
        Max(late), static_cast<long long>(ph.backlog_growth),
        static_cast<long long>(ph.swaps),
        ph.invalid_rounds == 0 ? "" : " | INVALID: generator ran late");
  }
}

std::string Stamp(const Workload& w, uint64_t seed, double seconds,
                  bool traced) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"pool_threads\": %d, \"nproc\": %u, \"simd\": \"%s\", "
      "\"simd_enabled\": %s, \"build_type\": \"%s\", "
      "\"matrix_pool\": %s}",
      w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
      traced ? 1 : 0, ParallelThreadCount(),
      std::thread::hardware_concurrency(), simd::CompiledMode(),
      simd::Enabled() ? "true" : "false", E2EBENCH_BUILD_TYPE,
      MatrixPoolEnabled() ? "true" : "false");
  return buffer;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               message);
  for (const Workload& w : MakeWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name, trace_out;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0 && seconds <= 600.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                              : -1;
      if (trace < 0) return Usage("bad --trace");
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (seed < 0 || seconds <= 0.0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const std::vector<Workload> workloads = MakeWorkloads();
  const Workload* workload = nullptr;
  for (const Workload& w : workloads) {
    if (w.name == workload_name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload");

  SetParallelThreadCount(kPoolThreads);
  SetTelemetryEnabled(false);
  const bool traced = trace == 1;
  const std::string stamp =
      Stamp(*workload, static_cast<uint64_t>(seed), seconds, traced);
  std::printf("stamp: %s\n", stamp.c_str());
  std::fflush(stdout);

  Ledger ledger;
  SpanLog no_spans(false);
  SpanLog spans(traced);
  const uint64_t useed = static_cast<uint64_t>(seed);
  // The end-to-end metrics always come from an untraced journey. A traced
  // run splits its window between that journey and a second one with
  // telemetry and phase metrics on; the difference is the tracing overhead.
  const double journey_s = traced ? seconds / 2.0 : seconds;
  const JourneyData plain =
      Journey(*workload, useed, journey_s, false, &ledger, &no_spans).Run();
  PrintJourney(plain, *workload);
  MetricList e2e, wall;
  EndToEnd(plain, &e2e);
  WallClock(plain, &wall);

  MetricList result;
  if (!traced) {
    result = e2e;
    std::printf("wall clock (per-layer in --trace 1):\n");
    wall.Print();
  } else {
    const JourneyData rich =
        Journey(*workload, useed, journey_s, true, &ledger, &spans).Run();
    PrintJourney(rich, *workload);
    // DESIGN §9 from outside: tracing must not move a single trained bit.
    if (!SameResult(plain.repeats.front().result,
                    rich.repeats.front().result)) {
      ledger.Mismatch("traced and untraced TrainResults differ");
    }
    Layers(rich, &ledger, &result);
    for (const std::string& name : wall.Names()) {
      result.Add(name, wall.Get(name), wall.Unit(name));
    }
    MetricList traced_e2e, traced_wall;
    EndToEnd(rich, &traced_e2e);
    WallClock(rich, &traced_wall);
    for (const char* name :
         {"setup_s", "time_to_target_cpu_s", "epoch_cpu_ms"}) {
      result.Add(std::string("trace.overhead.") + name,
                 traced_e2e.Get(name) - e2e.Get(name), e2e.Unit(name));
    }
    for (const char* name : {"wall.time_to_target_s", "wall.epoch_ms",
                             "wall.serve_p50_ms", "serve.cpu_us_per_request"}) {
      result.Add(std::string("trace.overhead.") + name,
                 traced_wall.Get(name) - wall.Get(name), wall.Unit(name));
    }
    if (!trace_out.empty()) {
      if (!spans.Write(trace_out, stamp)) {
        std::fprintf(stderr, "e2e_bench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", spans.size(),
                  trace_out.c_str());
    }
  }

  std::printf("%s metrics:\n", traced ? "per-layer" : "end-to-end");
  result.Print();
  for (const std::string& note : ledger.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("ops: attempted %lld failed %lld, outputs %s\n",
              static_cast<long long>(ledger.attempted),
              static_cast<long long>(ledger.failed),
              ledger.correct ? "correct" : "WRONG");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              ledger.correct ? "true" : "false",
              static_cast<long long>(ledger.attempted),
              static_cast<long long>(ledger.failed), result.ToJson().c_str());
  return ledger.correct ? 0 : 3;
}

}  // namespace
}  // namespace skipnode::e2e

int main(int argc, char** argv) { return skipnode::e2e::Main(argc, argv); }
