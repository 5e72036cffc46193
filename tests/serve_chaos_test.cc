// Hostile-network envelope coverage for the serve layer: the deterministic
// socket chaos wrapper (slow-drip reads, torn writes, EINTR storms,
// injected stalls, mid-exchange RST), the server's read/write timeouts
// against slowloris and torn-body peers, and the resilient client's
// retry-with-backoff through all of it. Every scenario must end in a typed
// response or a clean close — never a crashed or hung worker.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/retry.h"
#include "expert/pipeline.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"
#include "serve/server.h"
#include "synth/generator.h"

namespace coachlm {
namespace serve {
namespace {

namespace fs = std::filesystem;

FaultPlan Plan(const std::string& spec) {
  return FaultPlan::Parse(spec).ValueOrDie();
}

/// A connected AF_UNIX stream pair for exercising ChaosSocket without a
/// server. Closes both ends on destruction unless released.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    a = sv[0];
    b = sv[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

/// Reads from \p fd until EOF or \p cap bytes.
std::string DrainFd(int fd, size_t cap = 1 << 20) {
  std::string out;
  char buffer[4096];
  while (out.size() < cap) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    out.append(buffer, static_cast<size_t>(got));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ChaosSocket: deterministic, passthrough when unarmed, survivable when
// armed.
// ---------------------------------------------------------------------------

TEST(ChaosSocketTest, EqualPlanAndConnectionDisturbIdentically) {
  const FaultPlan plan = Plan(
      "rate=0.6,seed=7,continuation=0.5,"
      "sites=chaos.read+chaos.write+chaos.eintr+chaos.stall+chaos.rst");
  FakeClock clock;
  for (uint64_t id = 0; id < 32; ++id) {
    SocketPair first;
    SocketPair second;
    ChaosSocket one(first.a, plan, id, &clock);
    ChaosSocket two(second.a, plan, id, &clock);
    EXPECT_EQ(one.rst_armed(), two.rst_armed()) << "connection " << id;
    // Identical operation sequences observe identical disturbances.
    const std::string message(256, 'x');
    ASSERT_TRUE(one.SendAll(message).ok());
    ASSERT_TRUE(two.SendAll(message).ok());
    EXPECT_EQ(one.stats().writes_torn, two.stats().writes_torn);
    EXPECT_EQ(one.stats().eintr_injected, two.stats().eintr_injected);
    EXPECT_EQ(one.stats().stalls_injected, two.stats().stalls_injected);
  }
}

TEST(ChaosSocketTest, PlanWithoutChaosSitesIsPassthrough) {
  // A plan aimed at stage-level sites only must leave the socket alone.
  const FaultPlan plan = Plan("rate=1.0,seed=3,sites=serve.revise");
  SocketPair pair;
  ChaosSocket socket(pair.a, plan, /*connection_id=*/1);
  const std::string message(512, 'y');
  const ssize_t wrote = socket.Send(message.data(), message.size());
  EXPECT_EQ(wrote, static_cast<ssize_t>(message.size()));
  EXPECT_EQ(socket.stats().writes_torn, 0u);
  EXPECT_EQ(socket.stats().eintr_injected, 0u);
  EXPECT_FALSE(socket.rst_armed());
}

TEST(ChaosSocketTest, SendAllSurvivesEintrStormAndTornWrites) {
  const FaultPlan plan =
      Plan("rate=1.0,seed=11,continuation=0.9,sites=chaos.write+chaos.eintr");
  SocketPair pair;
  ChaosSocket socket(pair.a, plan, /*connection_id=*/5);
  std::string message;
  for (int i = 0; i < 500; ++i) message += "payload-" + std::to_string(i);
  const Status status = socket.SendAll(message);
  ASSERT_TRUE(status.ok()) << status;
  // rate=1.0 arms both sites on every connection; the robust loop must
  // have absorbed at least one of each disturbance.
  EXPECT_GE(socket.stats().writes_torn, 1u);
  EXPECT_GE(socket.stats().eintr_injected, 1u);
  ::shutdown(pair.a, SHUT_WR);
  EXPECT_EQ(DrainFd(pair.b), message);  // Every byte still arrived, in order.
}

TEST(ChaosSocketTest, DrippedReadsReassembleTheStream) {
  const FaultPlan plan =
      Plan("rate=1.0,seed=17,continuation=0.9,sites=chaos.read");
  SocketPair pair;
  const std::string message = "POST /v1/revise HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(pair.b, message.data(), message.size(), 0),
            static_cast<ssize_t>(message.size()));
  ::shutdown(pair.b, SHUT_WR);
  ChaosSocket socket(pair.a, plan, /*connection_id=*/2);
  std::string read_back;
  char buffer[4096];
  while (true) {
    const ssize_t got = socket.Recv(buffer, sizeof(buffer));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    read_back.append(buffer, static_cast<size_t>(got));
  }
  EXPECT_EQ(read_back, message);
  EXPECT_GE(socket.stats().reads_disturbed, 1u);
  EXPECT_LE(socket.stats().reads_disturbed,
            static_cast<uint64_t>(kMaxChaosOpsPerSite));
}

TEST(ChaosSocketTest, StallsSleepOnTheInjectedClock) {
  const FaultPlan plan =
      Plan("rate=1.0,seed=23,latency_us=5000,sites=chaos.stall");
  FakeClock clock;
  SocketPair pair;
  ASSERT_EQ(::send(pair.b, "x", 1, 0), 1);
  ChaosSocket socket(pair.a, plan, /*connection_id=*/3, &clock);
  char c = 0;
  ASSERT_EQ(socket.Recv(&c, 1), 1);
  EXPECT_GE(socket.stats().stalls_injected, 1u);
  EXPECT_GE(clock.elapsed_micros(), 5000);  // Stall served virtually.
}

// ---------------------------------------------------------------------------
// Server under hostile peers: typed responses or clean closes, never a
// crashed or wedged worker.
// ---------------------------------------------------------------------------

/// Shared fixture: a small trained coach checkpoint, built once.
class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusConfig config;
    config.size = 300;
    config.seed = 42;
    synth::SynthCorpusGenerator generator(config);
    corpus_ = new synth::SynthCorpus(generator.Generate());
    expert::RevisionStudyConfig study_config;
    study_config.sample_size = 100;
    const auto study = expert::RunRevisionStudy(
        corpus_->dataset, generator.engine(), study_config);
    coach::CoachConfig coach_config;
    coach_config.alpha = 0.3;
    model_ = new coach::CoachLm(
        coach::CoachTrainer(coach_config).Train(study.revisions));
    checkpoint_path_ = new std::string(
        (fs::temp_directory_path() / "serve_chaos_test_coach.json").string());
    ASSERT_TRUE(model_->SaveCheckpoint(*checkpoint_path_).ok());
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove(*checkpoint_path_, ec);
    delete checkpoint_path_;
    delete model_;
    delete corpus_;
  }

  static ServeConfig Config() {
    ServeConfig config;
    config.port = 0;  // Ephemeral: tests never race for a fixed port.
    config.checkpoint = *checkpoint_path_;
    config.coach = model_->config();
    return config;
  }

  static std::string BodyFor(size_t n) {
    std::string body;
    for (size_t i = 0; i < n && i < corpus_->dataset.size(); ++i) {
      body += corpus_->dataset[i].ToJson().Dump();
      body += '\n';
    }
    return body;
  }

  static std::string ExpectedFor(size_t n) {
    std::string expected;
    for (size_t i = 0; i < n && i < corpus_->dataset.size(); ++i) {
      const InstructionPair& pair = corpus_->dataset[i];
      Rng rng = DeriveRng(model_->config().seed, pair.id);
      expected += model_->Revise(pair, &rng).ToJson().Dump();
      expected += '\n';
    }
    return expected;
  }

  /// A raw TCP connection to the server, with a client-side recv timeout
  /// so a hung test fails typed instead of blocking the suite.
  static int RawConnect(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    timeval tv = {};
    tv.tv_sec = 5;
    (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  static synth::SynthCorpus* corpus_;
  static coach::CoachLm* model_;
  static std::string* checkpoint_path_;
};

synth::SynthCorpus* ServeChaosTest::corpus_ = nullptr;
coach::CoachLm* ServeChaosTest::model_ = nullptr;
std::string* ServeChaosTest::checkpoint_path_ = nullptr;

TEST_F(ServeChaosTest, SlowlorisHeaderDripHitsReadTimeout) {
  ServeConfig config = Config();
  config.read_timeout_ms = 100;  // The slow peer, not the deadline, trips.
  config.request_deadline_ms = 5000;
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  // The attacker sends a header fragment and then goes silent.
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const std::string fragment = "POST /v1/revise HTTP/1.1\r\nHost:";
  ASSERT_EQ(::send(fd, fragment.data(), fragment.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(fragment.size()));
  // Typed 408 or a clean close — either way the worker is released.
  const std::string answer = DrainFd(fd);
  ::close(fd);
  if (!answer.empty()) {
    EXPECT_NE(answer.find("408"), std::string::npos) << answer;
  }
  // The worker survived and keeps serving.
  Result<ParsedHttpResponse> health =
      HttpFetch(server.port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_GE(server.answered(Outcome::kDeadline), 1u);
  server.RequestDrain();
  server.AwaitDrain();
}

TEST_F(ServeChaosTest, TornMidBodyWriteIsTyped400) {
  ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  // Claim 100 body bytes, deliver 10, then half-close: the server sees a
  // torn request, not a timeout.
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const std::string torn =
      "POST /v1/revise HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789";
  ASSERT_EQ(::send(fd, torn.data(), torn.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(torn.size()));
  ::shutdown(fd, SHUT_WR);
  const std::string answer = DrainFd(fd);
  ::close(fd);
  EXPECT_NE(answer.find("400"), std::string::npos) << answer;

  Result<ParsedHttpResponse> health =
      HttpFetch(server.port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  server.RequestDrain();
  server.AwaitDrain();
}

TEST_F(ServeChaosTest, ClientRstAfterRequestIsAbsorbedByTheServer) {
  ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  // rate=1.0 arms the RST site on every connection: the client sends a
  // full request, then hard-resets instead of reading the response.
  FetchOptions options;
  options.chaos = Plan("rate=1.0,seed=5,sites=chaos.rst");
  options.retry.max_attempts = 1;
  options.request_id = 9;
  const FetchOutcome outcome =
      FetchWithRetry(server.port(), "POST", "/v1/revise", BodyFor(2), options);
  EXPECT_FALSE(outcome.response.ok());
  EXPECT_NE(outcome.response.status().message().find("chaos.rst"),
            std::string::npos);

  // The RST is the client's problem: the server absorbed it and serves the
  // next (chaos-free) exchange byte-identically.
  Result<ParsedHttpResponse> revise =
      HttpFetch(server.port(), "POST", "/v1/revise", BodyFor(2));
  ASSERT_TRUE(revise.ok()) << revise.status();
  EXPECT_EQ(revise->status, 200);
  EXPECT_EQ(revise->body, ExpectedFor(2));
  server.RequestDrain();
  server.AwaitDrain();
}

TEST_F(ServeChaosTest, ServerSideChaosStillAnswersByteIdentical) {
  // Worker-side chaos (dripped reads, torn writes, EINTR storms) on every
  // connection: the robust I/O loops must still produce the exact batch
  // bytes. The RST site is in the plan but the server masks it out — an
  // admitted connection is never torn down on purpose.
  ServeConfig config = Config();
  config.fault_plan = Plan(
      "rate=1.0,seed=3,continuation=0.7,"
      "sites=chaos.read+chaos.write+chaos.eintr+chaos.rst");
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());
  for (int i = 0; i < 4; ++i) {
    Result<ParsedHttpResponse> revise =
        HttpFetch(server.port(), "POST", "/v1/revise", BodyFor(3));
    ASSERT_TRUE(revise.ok()) << revise.status();
    EXPECT_EQ(revise->status, 200);
    EXPECT_EQ(revise->body, ExpectedFor(3));
  }
  server.RequestDrain();
  server.AwaitDrain();
}

TEST_F(ServeChaosTest, ResilientClientRecoversThroughChaos) {
  ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  // Each logical request gets an independent per-attempt chaos stream:
  // even at a 50% RST rate, six attempts make recovery overwhelmingly
  // likely, and the whole schedule is a pure function of (seed,
  // request_id) — reruns see the same outcomes.
  int answered = 0;
  int recovered = 0;
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    FetchOptions options;
    options.chaos = Plan("rate=0.5,seed=29,sites=chaos.rst");
    options.retry.max_attempts = 6;
    options.retry.initial_backoff_us = 100;
    options.request_id = static_cast<uint64_t>(i);
    const FetchOutcome outcome = FetchWithRetry(
        server.port(), "POST", "/v1/revise", BodyFor(1), options);
    if (outcome.answered()) {
      ++answered;
      EXPECT_EQ(outcome.response->body, ExpectedFor(1));
      if (outcome.attempts > 1) ++recovered;
    }
  }
  EXPECT_GE(answered, kRequests - 2);  // >= 90% availability under chaos.
  EXPECT_GE(recovered, 1);  // At least one request needed (and won) a retry.
  server.RequestDrain();
  server.AwaitDrain();
}

TEST_F(ServeChaosTest, NonIdempotentFetchNeverReplaysAfterSend) {
  ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  // The RST fires after the full request went out. A non-idempotent caller
  // must not replay it, whatever the retry budget says.
  FetchOptions options;
  options.chaos = Plan("rate=1.0,seed=5,sites=chaos.rst");
  options.retry.max_attempts = 6;
  options.idempotent = false;
  options.request_id = 9;
  const FetchOutcome outcome =
      FetchWithRetry(server.port(), "POST", "/v1/revise", BodyFor(1), options);
  EXPECT_FALSE(outcome.response.ok());
  EXPECT_EQ(outcome.attempts, 1);
  server.RequestDrain();
  server.AwaitDrain();
}

TEST(FetchRetryTest, ConnectRefusedBackoffScheduleIsDeterministic) {
  // Find a port with no listener: bind ephemeral, note it, close.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(probe);

  FakeClock clock;
  FetchOptions options;
  options.clock = &clock;
  options.request_id = 77;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_us = 1000;
  const FetchOutcome outcome =
      FetchWithRetry(dead_port, "GET", "/healthz", "", options);
  EXPECT_FALSE(outcome.response.ok());
  EXPECT_EQ(outcome.response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(outcome.attempts, 4);
  // The backoff schedule is exactly RetryPolicy's deterministic ladder,
  // and every sleep landed on the injected clock.
  int64_t expected = 0;
  for (int next = 2; next <= 4; ++next) {
    expected += options.retry.BackoffMicros(next, options.request_id);
  }
  EXPECT_EQ(outcome.backoff_micros, expected);
  EXPECT_EQ(clock.elapsed_micros(), expected);
}

}  // namespace
}  // namespace serve
}  // namespace coachlm
