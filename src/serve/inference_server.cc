// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "serve/inference_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/check.h"
#include "base/telemetry.h"
#include "tensor/ops.h"

namespace skipnode {

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kInvalid:
      return "invalid-handle";
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case ServeStatus::kInvalidArgument:
      return "invalid-argument";
    case ServeStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

bool ParseOverloadPolicy(const std::string& name, OverloadPolicy* policy) {
  if (name == "block") {
    *policy = OverloadPolicy::kBlock;
  } else if (name == "shed-newest") {
    *policy = OverloadPolicy::kShedNewest;
  } else if (name == "shed-oldest") {
    *policy = OverloadPolicy::kShedOldest;
  } else {
    return false;
  }
  return true;
}

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShedNewest:
      return "shed-newest";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
  }
  return "?";
}

ServeStatus PredictionHandle::status() const {
  if (slot_ == nullptr) return ServeStatus::kInvalid;
  std::unique_lock<std::mutex> lock(slot_->mu);
  slot_->cv.wait(lock, [this] { return slot_->ready; });
  return slot_->status;
}

const Matrix& PredictionHandle::logits() const {
  SKIPNODE_CHECK_MSG(slot_ != nullptr,
                     "serve: logits() on a default-constructed "
                     "PredictionHandle — check valid() first");
  std::unique_lock<std::mutex> lock(slot_->mu);
  slot_->cv.wait(lock, [this] { return slot_->ready; });
  return slot_->logits;
}

const std::vector<int>& PredictionHandle::classes() const {
  SKIPNODE_CHECK_MSG(slot_ != nullptr,
                     "serve: classes() on a default-constructed "
                     "PredictionHandle — check valid() first");
  std::unique_lock<std::mutex> lock(slot_->mu);
  slot_->cv.wait(lock, [this] { return slot_->ready; });
  return slot_->classes;
}

void InferenceServer::ResolveError(
    const std::shared_ptr<PredictionHandle::ResultSlot>& slot,
    ServeStatus status) {
  {
    std::lock_guard<std::mutex> guard(slot->mu);
    slot->status = status;
    slot->ready = true;
  }
  slot->cv.notify_all();
}

InferenceServer::InferenceServer(std::shared_ptr<const FrozenModel> model,
                                 const ServeOptions& options)
    : options_(options), fault_(options.fault), model_(std::move(model)) {
  SKIPNODE_CHECK(model_ != nullptr);
  SKIPNODE_CHECK(options_.workers >= 1);
  SKIPNODE_CHECK(options_.max_batch_rows >= 1);
  SKIPNODE_CHECK(options_.batch_window_us >= 0);
  SKIPNODE_CHECK(options_.max_queue_requests >= 0);
  SKIPNODE_CHECK(options_.default_deadline_us >= 0);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

InferenceServer::InferenceServer(const FrozenModel& model,
                                 const ServeOptions& options)
    : InferenceServer(
          std::shared_ptr<const FrozenModel>(&model,
                                             [](const FrozenModel*) {}),
          options) {}

InferenceServer::~InferenceServer() { Shutdown(); }

PredictionHandle InferenceServer::Submit(std::vector<int> node_ids,
                                         int64_t deadline_us) {
  auto slot = std::make_shared<PredictionHandle::ResultSlot>();
  PredictionHandle handle(slot);
  if (deadline_us <= 0) deadline_us = options_.default_deadline_us;
  const int64_t deadline_ns =
      deadline_us > 0 ? MonotonicNanos() + deadline_us * 1000 : 0;

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.requests;
  CountMetric("serve.requests");
  if (stopping_) {
    ++stats_.rejected;
    CountMetric("serve.rejected");
    ResolveError(slot, ServeStatus::kShutdown);
    return handle;
  }
  // Structured validation: a bad request fails, never the server. Ids are
  // re-validated against the batch's snapshot at compute time (a swap may
  // have shrunk the model since admission).
  bool args_ok = !node_ids.empty();
  const int num_nodes = model_->num_nodes();
  for (const int id : node_ids) {
    args_ok = args_ok && id >= 0 && id < num_nodes;
  }
  if (!args_ok) {
    ++stats_.invalid;
    CountMetric("serve.invalid");
    ResolveError(slot, ServeStatus::kInvalidArgument);
    return handle;
  }
  // Admission control (DESIGN §12): bounded queue under one of three
  // overload policies. Sheds resolve immediately with kRejected.
  if (options_.max_queue_requests > 0) {
    while (static_cast<int>(queue_.size()) >= options_.max_queue_requests) {
      if (options_.overload_policy == OverloadPolicy::kShedNewest) {
        ++stats_.rejected;
        CountMetric("serve.rejected");
        ResolveError(slot, ServeStatus::kRejected);
        return handle;
      }
      if (options_.overload_policy == OverloadPolicy::kShedOldest) {
        Request victim = std::move(queue_.front());
        queue_.pop_front();
        ++stats_.rejected;
        CountMetric("serve.rejected");
        ResolveError(victim.slot, ServeStatus::kRejected);
        continue;
      }
      // kBlock: backpressure the caller until a worker makes space.
      space_cv_.wait(lock, [this] {
        return stopping_ || static_cast<int>(queue_.size()) <
                                options_.max_queue_requests;
      });
      if (stopping_) {
        ++stats_.rejected;
        CountMetric("serve.rejected");
        ResolveError(slot, ServeStatus::kShutdown);
        return handle;
      }
    }
  }
  queue_.push_back(Request{std::move(node_ids), deadline_ns, slot});
  stats_.queue_peak =
      std::max(stats_.queue_peak, static_cast<int64_t>(queue_.size()));
  lock.unlock();
  cv_.notify_one();
  return handle;
}

void InferenceServer::SwapModel(std::shared_ptr<const FrozenModel> model) {
  SKIPNODE_CHECK(model != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The linearization point: batches formed after this store see the new
    // snapshot; batches already formed hold their own shared_ptr.
    model_ = std::move(model);
    ++stats_.swaps;
  }
  CountMetric("serve.swaps");
}

std::shared_ptr<const FrozenModel> InferenceServer::model_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
}

void InferenceServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void InferenceServer::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch;
    std::shared_ptr<const FrozenModel> snapshot;
    int64_t ordinal = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Dequeue the batch's first live request, resolving expired ones.
      for (;;) {
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained
        Request first = std::move(queue_.front());
        queue_.pop_front();
        space_cv_.notify_one();
        if (first.deadline_ns > 0 && MonotonicNanos() > first.deadline_ns) {
          ++stats_.deadline_exceeded;
          CountMetric("serve.deadline_exceeded");
          ResolveError(first.slot, ServeStatus::kDeadlineExceeded);
          continue;
        }
        batch.push_back(std::move(first));
        break;
      }
      int64_t batch_rows =
          static_cast<int64_t>(batch.back().node_ids.size());
      if (options_.batch_window_us > 0) {
        // Hold the batch open until the window closes or the row cap is
        // reached, coalescing everything that is queued or arrives. The
        // window bounds added latency; it never changes any logit.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.batch_window_us);
        while (batch_rows < options_.max_batch_rows) {
          if (queue_.empty()) {
            if (stopping_) break;
            if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
              break;
            }
            continue;
          }
          batch_rows += static_cast<int64_t>(queue_.front().node_ids.size());
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
          space_cv_.notify_one();
        }
      }
      // Batch formation is the swap linearization point: the snapshot and
      // the fault-injection ordinal are captured under the queue lock.
      snapshot = model_;
      ordinal = batches_formed_++;
    }

    // Deterministic serving faults (DESIGN §12): a stall lands between
    // batch formation and the batch-close deadline check, so armed
    // deadlines expire; a drop fails the whole batch with kRejected.
    if (fault_.ShouldFire(ServeFaultSite::kWorkerStall, ordinal)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.fault.stall_us));
    }
    if (fault_.ShouldFire(ServeFaultSite::kBatchDrop, ordinal)) {
      for (Request& request : batch) {
        CountMetric("serve.rejected");
        ResolveError(request.slot, ServeStatus::kRejected);
      }
      std::lock_guard<std::mutex> lock(mu_);
      stats_.rejected += static_cast<int64_t>(batch.size());
      continue;
    }

    // Batch close: expire deadlines that lapsed while the batch was open
    // and re-validate ids against the captured snapshot (a swap may have
    // shrunk num_nodes since Submit admitted the request).
    const int64_t close_ns = MonotonicNanos();
    std::vector<Request> live;
    live.reserve(batch.size());
    int64_t live_rows = 0, expired = 0, invalid = 0;
    for (Request& request : batch) {
      if (request.deadline_ns > 0 && close_ns > request.deadline_ns) {
        ++expired;
        CountMetric("serve.deadline_exceeded");
        ResolveError(request.slot, ServeStatus::kDeadlineExceeded);
        continue;
      }
      bool ids_ok = true;
      for (const int id : request.node_ids) {
        ids_ok = ids_ok && id >= 0 && id < snapshot->num_nodes();
      }
      if (!ids_ok) {
        ++invalid;
        CountMetric("serve.invalid");
        ResolveError(request.slot, ServeStatus::kInvalidArgument);
        continue;
      }
      live_rows += static_cast<int64_t>(request.node_ids.size());
      live.push_back(std::move(request));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.deadline_exceeded += expired;
      stats_.invalid += invalid;
      if (!live.empty()) {
        stats_.batches += 1;
        stats_.rows += live_rows;
      }
    }
    if (live.empty()) continue;

    // Compute outside the queue lock: one row-sliced kernel call for the
    // whole batch, then split per request. Each request's rows are bitwise
    // what a solo batch would have produced (frozen_model.h), computed
    // entirely from `snapshot`.
    std::vector<int> all_ids;
    all_ids.reserve(static_cast<size_t>(live_rows));
    for (const Request& request : live) {
      all_ids.insert(all_ids.end(), request.node_ids.begin(),
                     request.node_ids.end());
    }
    const ScopedTimer timer("serve.batch", /*items=*/live_rows);
    CountMetric("serve.batched_requests", static_cast<int64_t>(live.size()));
    const Matrix logits = snapshot->Logits(all_ids);
    int offset = 0;
    for (Request& request : live) {
      const int rows = static_cast<int>(request.node_ids.size());
      Matrix part(rows, logits.cols());
      for (int r = 0; r < rows; ++r) {
        const float* src = logits.row(offset + r);
        std::copy(src, src + logits.cols(), part.row(r));
      }
      offset += rows;
      std::vector<int> classes(request.node_ids.size(), 0);
      for (int r = 0; r < rows; ++r) {
        classes[static_cast<size_t>(r)] = RowArgmax(part, r);
      }
      {
        std::lock_guard<std::mutex> guard(request.slot->mu);
        request.slot->status = ServeStatus::kOk;
        request.slot->logits = std::move(part);
        request.slot->classes = std::move(classes);
        request.slot->ready = true;
      }
      request.slot->cv.notify_all();
    }
  }
}

ServeStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats snapshot = stats_;
  snapshot.queue_depth = static_cast<int64_t>(queue_.size());
  return snapshot;
}

}  // namespace skipnode
