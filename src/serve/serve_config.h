#ifndef COACHLM_SERVE_SERVE_CONFIG_H_
#define COACHLM_SERVE_SERVE_CONFIG_H_

#include <cstdint>
#include <string>

#include "coach/coach_config.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/status.h"
#include "json/parse_limits.h"
#include "serve/http.h"

namespace coachlm {
namespace serve {

/// \brief Static configuration of one `coachlm serve` daemon.
///
/// Everything here is fixed for the server's lifetime; the only mutable
/// piece of server state is the model snapshot inside ModelHost. The CLI
/// maps its flags onto this struct after its flag table has bounded them
/// (exit 2 on a bad value); Validate() is the library's own guard, run by
/// RevisionServer::StartServing for callers that build a config by hand.
/// Under a supervisor that means in each forked worker, not before forking.
struct ServeConfig {
  /// TCP port on 127.0.0.1. The CLI requires 1..65535; the library also
  /// accepts 0 (kernel-assigned ephemeral port) so tests and the in-process
  /// bench never race for a fixed port.
  int port = 8080;
  /// Fixed worker pool size; each worker owns one request at a time.
  int workers = 4;
  /// Admission-control bound: accepted connections waiting for a worker.
  /// A full queue sheds new arrivals with 429 + Retry-After instead of
  /// queueing silently.
  int queue_depth = 64;
  /// Per-request budget. Each request gets a CancelToken deadline of this
  /// many milliseconds; a blown deadline is a typed 504, never a hang.
  int64_t request_deadline_ms = 2000;
  /// Seconds advertised in the Retry-After header of a 429 shed response.
  int retry_after_seconds = 1;
  /// Socket read timeout (SO_RCVTIMEO): how long a worker waits for the
  /// peer's next request bytes before answering 408. 0 inherits the
  /// request deadline, so a dripping slowloris peer can never hold a
  /// worker past the per-request budget unless explicitly allowed to.
  int64_t read_timeout_ms = 0;
  /// Socket write timeout (SO_SNDTIMEO): how long a worker waits for a
  /// peer that stopped reading its response before dropping it. 0 inherits
  /// the request deadline.
  int64_t write_timeout_ms = 0;
  /// Bind with SO_REUSEPORT so N supervised worker processes can share one
  /// listening port; the kernel load-balances accepts across them.
  bool reuse_port = false;
  /// Trained coach checkpoint to serve (also the reload source).
  std::string checkpoint = "coach.json";
  /// Inference configuration applied to the loaded checkpoint.
  coach::CoachConfig coach;
  /// Bounds on the HTTP envelope of every request.
  HttpLimits http_limits;
  /// Bounds on the JSONL payload inside a /v1/revise body.
  json::ParseLimits parse_limits;
  /// Retry policy applied to transient per-record revise failures.
  RetryPolicy retry;
  /// Fault plan driven through serve.accept / serve.parse / serve.revise.
  FaultPlan fault_plan;
  /// Accept-loop poll interval: the latency bound on noticing a drain or
  /// reload signal.
  int64_t poll_interval_ms = 20;

  [[nodiscard]] Status Validate() const {
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument("serve: port must be in 0..65535, got " +
                                     std::to_string(port));
    }
    if (workers < 1 || workers > 1024) {
      return Status::InvalidArgument(
          "serve: workers must be in 1..1024, got " +
          std::to_string(workers));
    }
    if (queue_depth < 1 || queue_depth > 1000000) {
      return Status::InvalidArgument(
          "serve: queue_depth must be in 1..1000000, got " +
          std::to_string(queue_depth));
    }
    if (request_deadline_ms < 1) {
      return Status::InvalidArgument(
          "serve: request_deadline_ms must be >= 1, got " +
          std::to_string(request_deadline_ms));
    }
    if (read_timeout_ms < 0) {
      return Status::InvalidArgument(
          "serve: read_timeout_ms must be >= 0, got " +
          std::to_string(read_timeout_ms));
    }
    if (write_timeout_ms < 0) {
      return Status::InvalidArgument(
          "serve: write_timeout_ms must be >= 0, got " +
          std::to_string(write_timeout_ms));
    }
    if (checkpoint.empty()) {
      return Status::InvalidArgument("serve: checkpoint path must be set");
    }
    return Status::OK();
  }

  /// Effective socket read timeout: the explicit flag, else the request
  /// deadline.
  int64_t EffectiveReadTimeoutMs() const {
    return read_timeout_ms > 0 ? read_timeout_ms : request_deadline_ms;
  }
  /// Effective socket write timeout: the explicit flag, else the request
  /// deadline.
  int64_t EffectiveWriteTimeoutMs() const {
    return write_timeout_ms > 0 ? write_timeout_ms : request_deadline_ms;
  }
};

}  // namespace serve
}  // namespace coachlm

#endif  // COACHLM_SERVE_SERVE_CONFIG_H_
