#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "serve/chaos.h"
#include "serve/handler.h"
#include "serve/http.h"

namespace coachlm {
namespace serve {
namespace {

// Signal handlers may only touch lock-free sig_atomic_t flags; everything
// else happens on the accept loop's poll tick.
volatile std::sig_atomic_t g_drain_signalled = 0;
volatile std::sig_atomic_t g_reload_signalled = 0;

void OnDrainSignal(int /*signum*/) { g_drain_signalled = 1; }
void OnReloadSignal(int /*signum*/) { g_reload_signalled = 1; }

timeval TimevalFromMillis(int64_t millis) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(millis / 1000);
  tv.tv_usec = static_cast<suseconds_t>((millis % 1000) * 1000);
  return tv;
}

/// Bounds recv/send on a worker's socket independently, so a dripping
/// reader (slowloris) hits the read timeout and a peer that stopped
/// consuming its response hits the write timeout — neither can pin a
/// worker thread forever.
void SetSocketTimeouts(int fd, int64_t read_ms, int64_t write_ms) {
  const timeval read_tv = TimevalFromMillis(read_ms);
  const timeval write_tv = TimevalFromMillis(write_ms);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_tv, sizeof(read_tv));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &write_tv, sizeof(write_tv));
}

/// Sends a canned response on a connection whose request was never read
/// (shed / accept-fault paths), then drains what the client sent before
/// close(). Closing with unread bytes in the receive buffer turns into a
/// TCP RST that can destroy the response in flight — the client would see
/// "connection reset" instead of the typed 429/503 we just wrote. The
/// drain is bounded (byte cap + the socket's recv timeout) so a hostile
/// flood cannot pin the accept loop.
void SendResponseAndDiscard(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t wrote = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;  // Interrupted: retry.
    if (wrote <= 0) return;  // Timeout or peer gone: give up.
    sent += static_cast<size_t>(wrote);
  }
  (void)::shutdown(fd, SHUT_WR);
  char sink[4096];
  size_t drained = 0;
  while (drained < (1u << 20)) {
    const ssize_t got = ::recv(fd, sink, sizeof(sink), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF, error, or recv timeout: safe to close.
    drained += static_cast<size_t>(got);
  }
}

/// Each Outcome's counter and drain-summary label, in enum order.
struct OutcomeRow {
  const char* metric;
  const char* label;
};
constexpr std::array<OutcomeRow, kOutcomeCount> kOutcomes = {{
    {"serve.requests_ok", "ok"},
    {"serve.requests_shed", "shed"},
    {"serve.requests_client_error", "client errors"},
    {"serve.requests_server_error", "server errors"},
    {"serve.requests_deadline_exceeded", "deadline"},
}};

Outcome Classify(int status) {
  if (status == 429) return Outcome::kShed;
  // 408 is the client too slow to send, 504 the request's own budget.
  if (status == 408 || status == 504) return Outcome::kDeadline;
  if (status >= 500) return Outcome::kServerError;
  if (status >= 400) return Outcome::kClientError;
  return Outcome::kOk;
}

/// \p plan without chaos.rst: server-side chaos disturbs a worker's own
/// syscalls, but the server never tears down an admitted connection.
FaultPlan ServerChaosPlan(FaultPlan plan) {
  plan.site_mask &= ~FaultSiteBit(FaultSite::kChaosRst);
  return plan;
}

}  // namespace

void InstallServeSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = OnDrainSignal;
  sigemptyset(&action.sa_mask);
  (void)sigaction(SIGTERM, &action, nullptr);
  (void)sigaction(SIGINT, &action, nullptr);
  action.sa_handler = OnReloadSignal;
  (void)sigaction(SIGHUP, &action, nullptr);
  // A peer closing mid-write must surface as a send error, not SIGPIPE.
  (void)signal(SIGPIPE, SIG_IGN);
}

bool ServeDrainSignalled() { return g_drain_signalled != 0; }

bool ConsumeReloadSignal() {
  if (g_reload_signalled == 0) return false;
  g_reload_signalled = 0;
  return true;
}

void ResetServeSignalsForTest() {
  g_drain_signalled = 0;
  g_reload_signalled = 0;
}

RevisionServer::RevisionServer(const ServeConfig& config, ModelHost* models,
                               Clock* clock)
    : config_(config),
      models_(models),
      clock_(clock != nullptr ? clock : Clock::System()),
      accept_faults_(config.fault_plan),
      chaos_plan_(ServerChaosPlan(config.fault_plan)),
      queue_(static_cast<size_t>(config.queue_depth)) {}

RevisionServer::~RevisionServer() {
  RequestDrain();
  AwaitDrain();
}

Status RevisionServer::StartServing() {
  COACHLM_RETURN_NOT_OK(config_.Validate());
  if (models_->Snapshot() == nullptr) {
    return Status::FailedPrecondition(
        "serve: start requires a loaded model (ModelHost::Load first)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("serve: socket(): " +
                           std::string(std::strerror(errno)));
  }
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (config_.reuse_port) {
    // Supervised multi-process mode: every worker process binds the same
    // port and the kernel balances incoming connections across listeners.
    if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
      const Status status = Status::IoError(
          "serve: setsockopt(SO_REUSEPORT): " +
          std::string(std::strerror(errno)));
      ::close(fd);
      return status;
    }
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::IoError(
        "serve: bind(127.0.0.1:" + std::to_string(config_.port) +
        "): " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, config_.queue_depth) < 0) {
    const Status status =
        Status::IoError("serve: listen(): " + std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    const Status status = Status::IoError("serve: getsockname(): " +
                                          std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  workers_.reserve(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  COACHLM_LOG_INFO << "serve: listening on 127.0.0.1:" << port_ << " ("
                   << config_.workers << " workers, queue depth "
                   << config_.queue_depth << ")";
  return Status::OK();
}

void RevisionServer::CloseListener() {
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes a blocked accept/poll before close.
    (void)::shutdown(fd, SHUT_RDWR);
    (void)::close(fd);
  }
}

void RevisionServer::RequestDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Drain order is the contract: listener first (no new admissions), then
  // the queue (workers answer everything already admitted, then exit).
  CloseListener();
  queue_.Shutdown();
}

void RevisionServer::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    if (ServeDrainSignalled()) {
      RequestDrain();
      break;
    }
    if (ConsumeReloadSignal()) (void)models_->Reload();
    const int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd < 0) break;
    pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(config_.poll_interval_ms));
    if (ready <= 0) continue;  // Timeout (signal-poll tick) or EINTR.
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) continue;  // Listener closed under us or transient.

    const uint64_t request_id = next_request_id_++;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    CountMetric("serve.connections_accepted");
    SetSocketTimeouts(conn, config_.EffectiveReadTimeoutMs(),
                      config_.EffectiveWriteTimeoutMs());

    // The connection-level fault site: a plan targeting serve.accept turns
    // admission itself into a typed 5xx, exercising client retry paths.
    const Status injected = accept_faults_.Inject(FaultSite::kServeAccept,
                                                  request_id, 1, nullptr);
    if (!injected.ok()) {
      HttpResponse response;
      response.status = HttpStatusFromStatus(injected);
      response.body = HttpErrorBody(injected);
      Refuse(conn, response);
      continue;
    }

    if (!queue_.TryPush({conn, request_id})) {
      // Admission control: full queue -> explicit shed, bounded memory.
      HttpResponse response;
      response.status = 429;
      response.headers["Retry-After"] =
          std::to_string(config_.retry_after_seconds);
      response.body = HttpErrorBody(Status::ResourceExhausted(
          "serve: admission queue full (depth " +
          std::to_string(config_.queue_depth) + "); retry after " +
          std::to_string(config_.retry_after_seconds) + "s"));
      Refuse(conn, response);
      continue;
    }
    SetGaugeMetric("serve.queue_depth_peak",
                   static_cast<int64_t>(queue_.peak()));
  }
}

void RevisionServer::WorkerLoop() {
  AdmittedConnection connection;
  while (queue_.Pop(&connection)) {
    ServeConnection(connection.fd, connection.request_id);
    (void)::close(connection.fd);
  }
}

void RevisionServer::Refuse(int fd, const HttpResponse& response) {
  SendResponseAndDiscard(fd, response.Serialize());
  (void)::close(fd);
  CountOutcome(response);
}

void RevisionServer::CountOutcome(const HttpResponse& response) {
  const size_t outcome = static_cast<size_t>(Classify(response.status));
  answered_[outcome].fetch_add(1, std::memory_order_relaxed);
  CountMetric(kOutcomes[outcome].metric);
}

void RevisionServer::ServeConnection(int fd, uint64_t request_id) {
  const int64_t started_micros = clock_->NowMicros();
  HttpRequestParser parser(config_.http_limits);
  char buffer[16 * 1024];
  Status parse_status = Status::OK();
  ChaosSocket socket(fd, chaos_plan_, request_id, clock_);
  while (!parser.complete()) {
    const ssize_t got = socket.Recv(buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) continue;  // Interrupted (real or injected).
      parse_status = (errno == EAGAIN || errno == EWOULDBLOCK)
                         ? Status::DeadlineExceeded(
                               "serve: timed out reading the request")
                         : Status::IoError("serve: recv(): " +
                                           std::string(std::strerror(errno)));
      break;
    }
    if (got == 0) {
      parse_status =
          Status::InvalidArgument("serve: client closed before a full request");
      break;
    }
    parse_status = parser.Feed(buffer, static_cast<size_t>(got));
    if (!parse_status.ok()) break;
  }

  HttpResponse response;
  std::string target = "/";
  if (!parse_status.ok()) {
    response.status = HttpStatusFromStatus(parse_status);
    // A read timeout is the *client's* slowness, not an upstream's: 408.
    if (parse_status.code() == StatusCode::kDeadlineExceeded) {
      response.status = 408;
    }
    response.body = HttpErrorBody(parse_status);
  } else {
    ServeContext context;
    context.config = &config_;
    context.models = models_;
    context.clock = clock_;
    context.draining = draining_.load(std::memory_order_acquire);
    target = parser.request().target;
    response = HandleRequest(context, request_id, parser.request());
  }
  // Robust full-write: loops through partial writes and EINTR. A peer
  // that vanished or stopped reading is their loss — the request was
  // still answered as far as the drain contract is concerned.
  (void)socket.SendAll(response.Serialize());
  const int64_t micros = clock_->NowMicros() - started_micros;
  if (target == "/v1/revise") {
    ObserveMetric("serve.latency_revise_micros", micros);
  } else if (target == "/admin/reload") {
    ObserveMetric("serve.latency_admin_micros", micros);
  } else {
    ObserveMetric("serve.latency_health_micros", micros);
  }
  CountOutcome(response);
}

void RevisionServer::AwaitDrain() {
  if (joined_.exchange(true, std::memory_order_acq_rel)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  SetGaugeMetric("serve.queue_depth_peak",
                 static_cast<int64_t>(queue_.peak()));
}

std::string RevisionServer::DrainSummary() const {
  std::string summary =
      std::to_string(connections_accepted()) + " connections";
  for (size_t i = 0; i < kOutcomeCount; ++i) {
    summary += ", " + std::to_string(answered(static_cast<Outcome>(i))) +
               " " + kOutcomes[i].label;
  }
  summary += ", " + std::to_string(models_->version() - 1) + " reloads (" +
             std::to_string(models_->reloads_rejected()) + " rejected)";
  return summary;
}

}  // namespace serve
}  // namespace coachlm
