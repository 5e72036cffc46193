#include "serve/chaos.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "common/execution.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace coachlm {
namespace serve {
namespace {

/// Chaos stream-family tag: distinct from FaultInjector's site tags so a
/// plan covering both serve.* and chaos.* sites never replays one stream
/// as the other for the same connection id.
constexpr uint64_t ChaosTag(FaultSite site) {
  return 0xC4A05000ULL + static_cast<uint64_t>(site);
}

}  // namespace

ChaosSocket::ChaosSocket(int fd, const FaultPlan& plan,
                         uint64_t connection_id, Clock* clock)
    : fd_(fd),
      plan_(plan),
      connection_id_(connection_id),
      clock_(clock != nullptr ? clock : Clock::System()) {
  read_ops_ = ArmOps(FaultSite::kChaosRead);
  write_ops_ = ArmOps(FaultSite::kChaosWrite);
  eintr_ops_ = ArmOps(FaultSite::kChaosEintr);
  stall_ops_ = ArmOps(FaultSite::kChaosStall);
  rst_armed_ = ArmOps(FaultSite::kChaosRst) > 0;
}

int ChaosSocket::ArmOps(FaultSite site) const {
  if (!plan_.active()) return 0;
  if ((plan_.site_mask & FaultSiteBit(site)) == 0) return 0;
  // Same keying as FaultInjector::Inject: the connection's chaos destiny
  // is a pure function of (seed, site, connection_id), independent of
  // which thread or process serves it.
  Rng rng = DeriveRng(MixSeed(plan_.seed, ChaosTag(site)), connection_id_);
  if (!rng.NextBool(plan_.transient_rate)) return 0;
  int ops = 1;
  while (ops < kMaxChaosOpsPerSite && rng.NextBool(plan_.burst_continuation)) {
    ++ops;
  }
  return ops;
}

void ChaosSocket::MaybeStall() {
  if (stall_ops_ <= 0) return;
  --stall_ops_;
  ++stats_.stalls_injected;
  CountMetric("serve.chaos.stalls_injected");
  const int64_t stall =
      plan_.latency_us > 0 ? plan_.latency_us : kDefaultChaosStallMicros;
  clock_->SleepMicros(std::min(stall, kMaxChaosStallMicros));
}

bool ChaosSocket::MaybeEintr() {
  if (eintr_ops_ <= 0) return false;
  --eintr_ops_;
  ++stats_.eintr_injected;
  CountMetric("serve.chaos.eintr_injected");
  errno = EINTR;
  return true;
}

ssize_t ChaosSocket::Recv(char* buffer, size_t length) {
  if (MaybeEintr()) return -1;
  MaybeStall();
  size_t want = length;
  if (read_ops_ > 0 && length > 1) {
    // Slowloris in reverse: surface the stream one byte at a time so the
    // caller's framing loop must cope with arbitrarily fine fragmentation.
    --read_ops_;
    ++stats_.reads_disturbed;
    CountMetric("serve.chaos.reads_disturbed");
    want = 1;
  }
  return ::recv(fd_, buffer, want, 0);
}

ssize_t ChaosSocket::Send(const char* buffer, size_t length) {
  if (MaybeEintr()) return -1;
  MaybeStall();
  size_t want = length;
  if (write_ops_ > 0 && length > 1) {
    // A torn write: a real prefix goes out, the caller must loop for the
    // rest.
    --write_ops_;
    ++stats_.writes_torn;
    CountMetric("serve.chaos.writes_torn");
    want = std::max<size_t>(1, length / 4);
  }
  return ::send(fd_, buffer, want, MSG_NOSIGNAL);
}

Status ChaosSocket::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t wrote = Send(bytes.data() + sent, bytes.size() - sent);
    if (wrote < 0) {
      if (errno == EINTR) continue;  // Interrupted, not failed: retry.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "chaos: send timed out after " + std::to_string(sent) + " of " +
            std::to_string(bytes.size()) + " bytes");
      }
      return Status::IoError("chaos: send(): " +
                             std::string(std::strerror(errno)));
    }
    if (wrote == 0) {
      return Status::IoError("chaos: send() wrote nothing");
    }
    sent += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

void ChaosSocket::Close() {
  if (rst_armed_) {
    // SO_LINGER{on, 0}: close() discards the send queue and fires RST —
    // the adversarial hangup the server's robust paths must absorb.
    linger hard = {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    (void)setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    CountMetric("serve.chaos.rst_closes");
  }
  (void)::close(fd_);
}

}  // namespace serve
}  // namespace coachlm
