#ifndef COACHLM_SERVE_CHAOS_H_
#define COACHLM_SERVE_CHAOS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/fault.h"
#include "common/status.h"

namespace coachlm {
namespace serve {

/// Upper bound on how many socket operations one chaos site disturbs per
/// connection. Mirrors kMaxTransientBurst: robust I/O loops that survive
/// this many consecutive disturbances survive any plan.
inline constexpr int kMaxChaosOpsPerSite = 4;

/// Stall sleep applied per disturbed operation when the plan carries no
/// explicit latency_us, and the hard cap on any single injected stall.
inline constexpr int64_t kDefaultChaosStallMicros = 20000;
inline constexpr int64_t kMaxChaosStallMicros = 1000000;

/// \brief Per-connection tally of what the chaos wrapper injected.
struct ChaosStats {
  uint64_t reads_disturbed = 0;
  uint64_t writes_torn = 0;
  uint64_t eintr_injected = 0;
  uint64_t stalls_injected = 0;
};

/// \brief Deterministic socket-fault wrapper over one connection FD.
///
/// Driven by the same FaultPlan grammar as the stage-level FaultInjector,
/// through five dedicated sites: chaos.read drips reads one byte at a time
/// (slowloris), chaos.write tears writes into short chunks, chaos.eintr
/// interrupts syscalls with EINTR, chaos.stall sleeps before an operation
/// (a silent peer), and chaos.rst arms a hard TCP reset on close. Every
/// decision is a pure function of (plan.seed, site, connection_id) keyed
/// exactly like FaultInjector::Inject — equal plans against equal
/// connection ids disturb the same operations no matter which thread or
/// process carries the connection. RevisionServer passes the request id
/// its accept loop drew, so a server-side schedule follows accept order,
/// not worker placement. A default plan (or one whose mask
/// carries no chaos sites) makes every call a thin passthrough plus the
/// robust-I/O semantics of SendAll/RecvSome.
///
/// The wrapper does not own the FD; callers close it (Close() is offered
/// for the RST-aware path). Injected disturbances still move real bytes —
/// a torn write writes a prefix, a dripped read reads one byte — so the
/// wrapper never forges data, only adversarial scheduling.
class ChaosSocket {
 public:
  /// Wraps \p fd. \p clock serves injected stalls (nullptr = system clock).
  ChaosSocket(int fd, const FaultPlan& plan, uint64_t connection_id,
              Clock* clock = nullptr);

  ChaosSocket(const ChaosSocket&) = delete;
  ChaosSocket& operator=(const ChaosSocket&) = delete;

  /// recv() with chaos applied: may return -1/EINTR (injected storm),
  /// sleep (injected stall), or read a single byte (injected drip). Real
  /// errno values pass through untouched.
  ssize_t Recv(char* buffer, size_t length);

  /// send(MSG_NOSIGNAL) with chaos applied: may return -1/EINTR, sleep, or
  /// write a short prefix. Callers must loop — exactly the discipline the
  /// production write paths need anyway.
  ssize_t Send(const char* buffer, size_t length);

  /// Robust full-write loop over Send(): retries EINTR (real or injected)
  /// and partial writes until every byte is out. DeadlineExceeded when the
  /// socket's send timeout expires (EAGAIN), IoError when the peer is gone.
  [[nodiscard]] Status SendAll(const std::string& bytes);

  /// True when the plan elected this connection for a mid-stream RST.
  bool rst_armed() const { return rst_armed_; }

  /// Closes the FD; when rst_armed(), SO_LINGER{1,0} first so the peer
  /// observes a hard RST instead of an orderly FIN.
  void Close();

  const ChaosStats& stats() const { return stats_; }

 private:
  /// Remaining disturbed operations for one site on this connection.
  int ArmOps(FaultSite site) const;
  /// Serves a pending stall for one operation, if armed.
  void MaybeStall();
  /// Serves a pending EINTR, if armed. True when the caller must return
  /// -1/EINTR.
  bool MaybeEintr();

  const int fd_;
  const FaultPlan plan_;
  const uint64_t connection_id_;
  Clock* const clock_;
  int read_ops_ = 0;
  int write_ops_ = 0;
  int eintr_ops_ = 0;
  int stall_ops_ = 0;
  bool rst_armed_ = false;
  ChaosStats stats_;
};

}  // namespace serve
}  // namespace coachlm

#endif  // COACHLM_SERVE_CHAOS_H_
