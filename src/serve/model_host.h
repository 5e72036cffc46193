#ifndef COACHLM_SERVE_MODEL_HOST_H_
#define COACHLM_SERVE_MODEL_HOST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "coach/coach_lm.h"
#include "common/annotations.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace coachlm {
namespace serve {

/// \brief Owner of the served coach model, with hot reload.
///
/// The live model is an immutable `shared_ptr<const CoachLm>` snapshot:
/// every request Snapshot()s at admission and keeps revising on that
/// object even if a reload lands mid-request — in-flight work always
/// finishes on the model it started with, and the old model is freed when
/// its last request drops the reference.
///
/// Reload() re-reads the checkpoint path and swaps atomically on success
/// only. A torn or invalid artifact (the checkpoint writer's atomic
/// rename makes this rare, but operators can still point the server at
/// garbage) returns the loader's typed error and leaves the old snapshot
/// live — a failed reload is observable, never destructive.
///
/// Reload() is the one reload path: SIGHUP and POST /admin/reload both
/// call it, and it alone counts serve.reloads_ok / serve.reloads_rejected
/// and logs the outcome.
class ModelHost {
 public:
  ModelHost(std::string checkpoint_path, coach::CoachConfig config)
      : checkpoint_path_(std::move(checkpoint_path)), config_(config) {}

  /// Initial load (not counted as a reload); the server refuses to start
  /// without a valid model.
  [[nodiscard]] Status Load() { return Swap().status; }

  /// Outcome of one reload attempt.
  struct ReloadResult {
    Status status;
    /// Model version now live (increments only on success).
    uint64_t version = 0;
  };

  /// Atomically swaps in a fresh checkpoint read; on failure the previous
  /// model stays live. Safe to call concurrently from the signal-polling
  /// accept loop and a /admin/reload worker.
  ReloadResult Reload() {
    const ReloadResult result = Swap();
    if (result.status.ok()) {
      CountMetric("serve.reloads_ok");
      COACHLM_LOG_INFO << "serve: model reloaded, version " << result.version;
    } else {
      reloads_rejected_.fetch_add(1, std::memory_order_relaxed);
      CountMetric("serve.reloads_rejected");
      COACHLM_LOG_WARN << "serve: reload rejected, keeping version "
                       << result.version << ": " << result.status.ToString();
    }
    return result;
  }

  /// Failed reloads (successful ones are version() - 1).
  uint64_t reloads_rejected() const {
    return reloads_rejected_.load(std::memory_order_relaxed);
  }

  /// The current immutable model snapshot (nullptr before first Load()).
  std::shared_ptr<const coach::CoachLm> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return model_;
  }

  /// Monotone version of the live snapshot: 1 after the initial load,
  /// +1 per successful reload.
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return version_;
  }

  const std::string& checkpoint_path() const { return checkpoint_path_; }
  const coach::CoachConfig& config() const { return config_; }

 private:
  ReloadResult Swap() {
    // The checkpoint read happens outside the swap lock on purpose: a slow
    // disk must not stall Snapshot() calls on the request path.
    Result<coach::CoachLm> loaded =
        coach::CoachLm::LoadCheckpoint(checkpoint_path_, config_);
    ReloadResult result;
    if (!loaded.ok()) {
      result.status = loaded.status();
      std::lock_guard<std::mutex> lock(mutex_);
      result.version = version_;
      return result;
    }
    auto fresh =
        std::make_shared<const coach::CoachLm>(std::move(loaded).ValueOrDie());
    std::lock_guard<std::mutex> lock(mutex_);
    model_ = std::move(fresh);
    ++version_;
    result.version = version_;
    return result;
  }

  const std::string checkpoint_path_;
  const coach::CoachConfig config_;
  mutable std::mutex mutex_;
  std::shared_ptr<const coach::CoachLm> model_ COACHLM_GUARDED_BY(mutex_);
  uint64_t version_ COACHLM_GUARDED_BY(mutex_) = 0;
  std::atomic<uint64_t> reloads_rejected_{0};
};

}  // namespace serve
}  // namespace coachlm

#endif  // COACHLM_SERVE_MODEL_HOST_H_
