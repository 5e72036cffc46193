#ifndef COACHLM_SERVE_SERVER_H_
#define COACHLM_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/status.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"

namespace coachlm {
namespace serve {

/// How an answered connection ended. Each response is classified exactly
/// once, from its status code: 2xx ok, 429 shed, 408/504 deadline, other
/// 5xx server error, other 4xx client error. The class feeds both its
/// serve.requests_* counter and the server's own tally.
enum class Outcome { kOk, kShed, kClientError, kServerError, kDeadline };
inline constexpr size_t kOutcomeCount =
    static_cast<size_t>(Outcome::kDeadline) + 1;

/// \brief The `coachlm serve` daemon: listener, admission queue, fixed
/// worker pool, signal-driven drain and reload.
///
/// Lifecycle: StartServing() binds 127.0.0.1:port, spawns the accept loop and
/// `workers` worker threads, and returns. RequestDrain() (or SIGTERM /
/// SIGINT via InstallServeSignalHandlers) begins graceful shutdown in a
/// fixed order: the listener closes FIRST (no new work can arrive), then
/// the admission queue closes (workers answer everything already
/// admitted), then workers exit. AwaitDrain() joins all of it. SIGHUP (or
/// POST /admin/reload) calls ModelHost::Reload() to hot-swap the model;
/// in-flight requests finish on the snapshot they started with.
///
/// The accept loop draws each connection's request id (the accept
/// sequence number) once; it travels with the fd through the queue and
/// keys the serve.accept fault, the server-side ChaosSocket and
/// HandleRequest alike, whichever worker takes the connection.
///
/// One request per connection, Connection: close — the protocol stays
/// trivially correct under drain: every admitted connection gets exactly
/// one response before its socket closes.
class RevisionServer {
 public:
  /// \p clock times requests and deadlines (tests may inject, though the
  /// wire path is usually driven with the system clock).
  RevisionServer(const ServeConfig& config, ModelHost* models,
                 Clock* clock = nullptr);
  ~RevisionServer();

  RevisionServer(const RevisionServer&) = delete;
  RevisionServer& operator=(const RevisionServer&) = delete;

  /// Binds, listens, and spawns the accept loop + worker pool. Fails with
  /// a typed error if the port is taken or the model is not loaded.
  [[nodiscard]] Status StartServing();

  /// The bound port (resolves port 0 to the kernel's pick).
  int port() const { return port_; }

  /// Begins graceful drain (idempotent, callable from any thread or from
  /// the signal-flag poll): listener closes first, admitted work drains.
  void RequestDrain();

  /// True once RequestDrain() has been observed.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Blocks until the accept loop and all workers have exited (requires a
  /// prior RequestDrain, or an armed signal arriving). Flushes final
  /// gauges. Idempotent.
  void AwaitDrain();

  /// Connections accepted so far; each drew one request id.
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Responses of class \p outcome so far (kept even when the metrics
  /// registry is disabled).
  uint64_t answered(Outcome outcome) const {
    return answered_[static_cast<size_t>(outcome)].load(
        std::memory_order_relaxed);
  }
  /// "N connections, N ok, N shed, N client errors, N server errors,
  /// N deadline, N reloads (N rejected)", from the outcome table.
  std::string DrainSummary() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Reads one request off \p fd, handles it, writes the response. Every
  /// admitted fd gets a response — even parse failures and timeouts.
  void ServeConnection(int fd, uint64_t request_id);
  /// Answers a connection whose request is never read (accept fault,
  /// shed) and closes it.
  void Refuse(int fd, const HttpResponse& response);
  /// Classifies \p response and counts it: the one counting point.
  void CountOutcome(const HttpResponse& response);
  void CloseListener();

  const ServeConfig config_;
  ModelHost* const models_;
  Clock* const clock_;
  /// Built once from config_.fault_plan.
  const FaultInjector accept_faults_;
  const FaultPlan chaos_plan_;
  AdmissionQueue<AdmittedConnection> queue_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> joined_{false};
  /// The accept sequence number; only the accept thread touches it.
  uint64_t next_request_id_ = 0;
  std::atomic<uint64_t> connections_accepted_{0};
  std::array<std::atomic<uint64_t>, kOutcomeCount> answered_{};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

/// \name Signal integration
///
/// Handlers only flip `volatile sig_atomic_t` flags; the accept loop polls
/// them every poll_interval_ms and translates SIGTERM/SIGINT into
/// RequestDrain() and SIGHUP into ModelHost::Reload(). SIGPIPE is ignored
/// (sends also pass MSG_NOSIGNAL) so a client hanging up mid-response is
/// an error return, not process death.
/// @{
void InstallServeSignalHandlers();
/// True when SIGTERM/SIGINT arrived since the handlers were installed.
bool ServeDrainSignalled();
/// Consumes a pending SIGHUP (returns true at most once per signal).
bool ConsumeReloadSignal();
/// Test hook: clears both pending-signal flags.
void ResetServeSignalsForTest();
/// @}

}  // namespace serve
}  // namespace coachlm

#endif  // COACHLM_SERVE_SERVER_H_
