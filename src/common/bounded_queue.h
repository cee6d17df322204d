// A bounded multi-producer queue with pluggable full-queue behavior — the
// ingress buffer each server shard owns (see src/server).
//
// The three push flavors correspond to the server's backpressure policies:
//   * PushBlock      — wait for space (lossless, applies backpressure to
//                      the producing connection thread);
//   * TryPush        — fail fast when full (the caller rejects the frame);
//   * PushShedOldest — evict the oldest queued items to make room (bounded
//                      staleness: fresh data wins, the evicted items are
//                      returned to the caller for accounting).
//
// Two bounds apply: an item count, and optionally a total weight — the
// sum of `Weigh()(item)` over the queued items (a shard weighs a frame by
// the bytes its decoded events occupy). The queue is full while either
// bound is reached: count >= capacity, or weight >= weight_capacity. An
// item is weighed on entry, not rejected for its own size, so an empty
// queue always admits one item of any weight and the weight can overshoot
// its bound by at most the last item admitted.
//
// Implementation is a mutex + two condition variables over a deque: the
// queue holds whole ingest frames (hundreds of events each), so queue ops
// are far off the hot path and simplicity beats lock-free cleverness —
// and every interleaving stays obvious under TSan.

#ifndef IMPATIENCE_COMMON_BOUNDED_QUEUE_H_
#define IMPATIENCE_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace impatience {

// Outcome of a push attempt.
enum class QueuePush {
  kOk,        // Item enqueued; nothing displaced.
  kBlocked,   // Item enqueued after waiting for space (PushBlock only).
  kRejected,  // Queue full; item NOT enqueued (TryPush only).
  kShed,      // Item enqueued; the oldest item(s) evicted (PushShedOldest).
  kClosed,    // Queue closed; item NOT enqueued.
};

// The default weight: every item weighs nothing, so only the count bounds.
struct Weightless {
  template <typename T>
  size_t operator()(const T&) const {
    return 0;
  }
};

template <typename T, typename Weigh = Weightless>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(
      size_t capacity,
      size_t weight_capacity = std::numeric_limits<size_t>::max(),
      Weigh weigh = Weigh())
      : capacity_(capacity),
        weight_capacity_(weight_capacity),
        weigh_(std::move(weigh)) {
    IMPATIENCE_CHECK(capacity_ > 0);
    IMPATIENCE_CHECK(weight_capacity_ > 0);
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  // Blocks until there is space (or the queue closes).
  QueuePush PushBlock(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    while (FullLocked() && !closed_) {
      waited = true;
      not_full_.wait(lock);
    }
    if (closed_) return QueuePush::kClosed;
    PushLocked(std::move(item));
    return waited ? QueuePush::kBlocked : QueuePush::kOk;
  }

  // Never blocks; the caller owns the rejected item.
  QueuePush TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return QueuePush::kClosed;
    if (FullLocked()) return QueuePush::kRejected;
    PushLocked(std::move(item));
    return QueuePush::kOk;
  }

  // Never blocks; while the queue is full, evicts the oldest queued item.
  // The evicted items (oldest first) replace the contents of `shed` so the
  // caller can account for the lost work.
  QueuePush PushShedOldest(T item, std::vector<T>* shed) {
    shed->clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return QueuePush::kClosed;
    while (FullLocked()) shed->push_back(PopLocked());
    PushLocked(std::move(item));
    return shed->empty() ? QueuePush::kOk : QueuePush::kShed;
  }

  // Blocks until an item is available or the queue is closed AND drained.
  // Returns false only in the latter case — Close() never discards queued
  // items, so a consumer loop `while (q.Pop(&item))` is a full drain.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    while (items_.empty() && !closed_) {
      not_empty_.wait(lock);
    }
    if (items_.empty()) return false;
    *out = PopLocked();
    not_full_.notify_one();
    return true;
  }

  // Non-blocking pop; false when nothing is queued right now.
  bool TryPop(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    *out = PopLocked();
    not_full_.notify_one();
    return true;
  }

  // Rejects all future pushes and wakes every waiter; queued items remain
  // poppable (drain-then-stop shutdown).
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  // Total weight of the queued items.
  size_t weight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return weight_;
  }

  size_t weight_capacity() const { return weight_capacity_; }

 private:
  struct Entry {
    T item;
    size_t weight;
  };

  bool FullLocked() const {
    return items_.size() >= capacity_ || weight_ >= weight_capacity_;
  }

  void PushLocked(T item) {
    const size_t w = weigh_(item);
    weight_ += w;
    items_.push_back({std::move(item), w});
    not_empty_.notify_one();
  }

  T PopLocked() {
    Entry& front = items_.front();
    weight_ -= front.weight;
    T item = std::move(front.item);
    items_.pop_front();
    return item;
  }

  const size_t capacity_;
  const size_t weight_capacity_;
  const Weigh weigh_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Entry> items_;
  size_t weight_ = 0;
  bool closed_ = false;
};

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_BOUNDED_QUEUE_H_
