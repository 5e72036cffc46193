#ifndef COACHLM_SERVE_ADMISSION_H_
#define COACHLM_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "common/annotations.h"

namespace coachlm {
namespace serve {

/// \brief One admitted connection: its socket and the request id the
/// accept loop drew for it, which keys all of its fault decisions.
struct AdmittedConnection {
  int fd = -1;
  uint64_t request_id = 0;
};

/// \brief Bounded MPMC admission queue — the server's overload valve.
///
/// The accept loop TryPush()es every connection it admits; workers Pop().
/// The bound is the whole point: when the queue is full TryPush returns
/// false *immediately* and the caller sheds the connection with an explicit
/// 429, so memory stays O(queue_depth) no matter how hard clients push
/// (graceful degradation, never silent queueing).
///
/// Shutdown() starts the drain: producers are refused from then on, but
/// consumers keep Pop()ing until the queue is empty — every admitted
/// request gets an answer — and only then does Pop return false.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits \p item unless the queue is full or closed. Never blocks.
  [[nodiscard]] bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > peak_) peak_ = items_.size();
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available (true) or the queue is closed and
  /// drained (false). Opted out of clang's thread-safety analysis: the
  /// cv wait goes through an unannotated std::unique_lock; the lint rule
  /// still checks the lexical scope.
  [[nodiscard]] bool Pop(T* out) COACHLM_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Refuses new producers; consumers drain what was already admitted.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  /// High-water mark of queued items (the serve.queue_depth_peak gauge).
  size_t peak() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_ COACHLM_GUARDED_BY(mutex_);
  size_t peak_ COACHLM_GUARDED_BY(mutex_) = 0;
  bool closed_ COACHLM_GUARDED_BY(mutex_) = false;
};

}  // namespace serve
}  // namespace coachlm

#endif  // COACHLM_SERVE_ADMISSION_H_
