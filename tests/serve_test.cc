// End-to-end coverage of the `coachlm serve` robustness layer: hostile
// HTTP envelopes, admission-control shedding, per-request deadlines, hot
// model reload (including torn artifacts), fault-plan injection through
// the serve.* sites, and graceful SIGTERM drain.

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/checkpoint.h"
#include "common/clock.h"
#include "common/execution.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/report.h"
#include "common/trace.h"
#include "expert/pipeline.h"
#include "json/jsonl.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/handler.h"
#include "serve/http.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"
#include "serve/server.h"
#include "synth/generator.h"

namespace coachlm {
namespace serve {
namespace {

namespace fs = std::filesystem;

/// Shared pipeline state: a small trained coach saved as a checkpoint,
/// built once for the whole suite.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusConfig config;
    config.size = 600;
    config.seed = 42;
    synth::SynthCorpusGenerator generator(config);
    corpus_ = new synth::SynthCorpus(generator.Generate());
    expert::RevisionStudyConfig study_config;
    study_config.sample_size = 200;
    const auto study = expert::RunRevisionStudy(
        corpus_->dataset, generator.engine(), study_config);
    coach::CoachConfig coach_config;
    coach_config.alpha = 0.3;
    model_ = new coach::CoachLm(
        coach::CoachTrainer(coach_config).Train(study.revisions));
    checkpoint_path_ = new std::string(
        (fs::temp_directory_path() / "serve_test_coach.json").string());
    ASSERT_TRUE(model_->SaveCheckpoint(*checkpoint_path_).ok());
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove(*checkpoint_path_, ec);
    delete checkpoint_path_;
    delete model_;
    delete corpus_;
  }

  /// A fresh config pointing at the suite checkpoint.
  static ServeConfig Config() {
    ServeConfig config;
    config.port = 0;  // Ephemeral: tests never race for a fixed port.
    config.checkpoint = *checkpoint_path_;
    config.coach = model_->config();
    return config;
  }

  /// JSONL request body for the first \p n corpus pairs.
  static std::string BodyFor(size_t n) {
    std::string body;
    for (size_t i = 0; i < n && i < corpus_->dataset.size(); ++i) {
      body += corpus_->dataset[i].ToJson().Dump();
      body += '\n';
    }
    return body;
  }

  /// The batch-revision bytes for the same pairs: what /v1/revise must
  /// return byte-identically in deterministic mode.
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

  static HttpRequest Post(const std::string& target,
                          const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.body = body;
    return request;
  }

  static HttpRequest Get(const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    return request;
  }

  static synth::SynthCorpus* corpus_;
  static coach::CoachLm* model_;
  static std::string* checkpoint_path_;
};

synth::SynthCorpus* ServeTest::corpus_ = nullptr;
coach::CoachLm* ServeTest::model_ = nullptr;
std::string* ServeTest::checkpoint_path_ = nullptr;

// ---------------------------------------------------------------------------
// HTTP parser: hostile envelopes become typed errors, never crashes.
// ---------------------------------------------------------------------------

TEST(HttpParser, ParsesPostWithBody) {
  const std::string raw =
      "POST /v1/revise HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
  Result<HttpRequest> parsed = ParseHttpRequest(raw);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->target, "/v1/revise");
  EXPECT_EQ(parsed->body, "hello");
  EXPECT_EQ(parsed->Header("host"), "x");
}

TEST(HttpParser, FeedsByteByByte) {
  const std::string raw =
      "GET /healthz HTTP/1.1\r\nAccept: any\r\n\r\n";
  HttpRequestParser parser;
  for (const char c : raw) {
    ASSERT_TRUE(parser.Feed(&c, 1).ok());
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/healthz");
}

TEST(HttpParser, MalformedRequestLineIsInvalidArgument) {
  Result<HttpRequest> parsed = ParseHttpRequest("GARBAGE\r\n\r\n");
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(HttpParser, UnsupportedVersionIsInvalidArgument) {
  Result<HttpRequest> parsed =
      ParseHttpRequest("GET / SMTP/3.0\r\n\r\n");
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(HttpParser, OversizedRequestLineIsResourceExhausted) {
  HttpLimits limits;
  limits.max_request_line_bytes = 64;
  const std::string raw =
      "GET /" + std::string(500, 'a') + " HTTP/1.1\r\n\r\n";
  Result<HttpRequest> parsed = ParseHttpRequest(raw, limits);
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(HttpParser, HeaderBombIsResourceExhausted) {
  HttpLimits limits;
  limits.max_headers = 4;
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i) {
    raw += "h" + std::to_string(i) + ": v\r\n";
  }
  raw += "\r\n";
  Result<HttpRequest> parsed = ParseHttpRequest(raw, limits);
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(HttpParser, OversizedBodyRejectedBeforeBuffering) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  // The violation is detected from Content-Length alone: no body byte is
  // ever fed, yet the parser already refuses.
  HttpRequestParser parser(limits);
  const std::string head =
      "POST /v1/revise HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
  const Status status = parser.Feed(head.data(), head.size());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(HttpParser, GarbageContentLengthIsInvalidArgument) {
  Result<HttpRequest> parsed = ParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  parsed = ParseHttpRequest("POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n");
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(HttpParser, ChunkedEncodingIsNotImplemented) {
  Result<HttpRequest> parsed = ParseHttpRequest(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotImplemented);
}

TEST(HttpParser, BytesPastContentLengthAreRejected) {
  HttpRequestParser parser;
  const std::string raw =
      "POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nhello";
  const Status status = parser.Feed(raw.data(), raw.size());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(HttpParser, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 429;
  response.headers["Retry-After"] = "1";
  response.body = "{\"x\":1}";
  Result<ParsedHttpResponse> parsed = ParseHttpResponse(response.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 429);
  EXPECT_EQ(parsed->headers.at("retry-after"), "1");
  EXPECT_EQ(parsed->body, "{\"x\":1}");
}

// ---------------------------------------------------------------------------
// Admission queue: bounded, shedding, drains fully after Close.
// ---------------------------------------------------------------------------

TEST(AdmissionQueueTest, ShedsWhenFullAndDrainsAfterClose) {
  AdmissionQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Full: shed, never block or grow.
  EXPECT_EQ(queue.peak(), 2u);
  queue.Shutdown();
  EXPECT_FALSE(queue.TryPush(4));  // Closed: no new admissions.
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));  // Admitted work still drains...
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));  // ...then consumers see the end.
}

// ---------------------------------------------------------------------------
// Model host: hot reload, torn artifacts.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ReloadBumpsVersionAndKeepsServing) {
  ModelHost host(*checkpoint_path_, model_->config());
  ASSERT_TRUE(host.Load().ok());
  EXPECT_EQ(host.version(), 1u);
  const auto before = host.Snapshot();
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(host.Reload().status.ok());
  EXPECT_EQ(host.version(), 2u);
  // The old snapshot stays valid for in-flight work after the swap.
  InstructionPair pair = corpus_->dataset[0];
  Rng rng = DeriveRng(before->config().seed, pair.id);
  EXPECT_TRUE(before->Revise(pair, &rng).IsWellFormed());
}

TEST_F(ServeTest, TornArtifactRejectedOldModelStaysLive) {
  const std::string torn_path =
      (fs::temp_directory_path() / "serve_test_torn.json").string();
  ASSERT_TRUE(json::ReadFile(*checkpoint_path_).ok());
  const std::string good = json::ReadFile(*checkpoint_path_).ValueOrDie();
  ASSERT_TRUE(AtomicWriteFile(torn_path, good).ok());

  ModelHost host(torn_path, model_->config());
  ASSERT_TRUE(host.Load().ok());
  const auto live = host.Snapshot();

  // Tear the artifact (truncate mid-document) and try to reload: the
  // reload must fail typed and the old model must keep serving.
  ASSERT_TRUE(AtomicWriteFile(torn_path, good.substr(0, good.size() / 2)).ok());
  const ModelHost::ReloadResult result = host.Reload();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(host.version(), 1u);
  EXPECT_EQ(host.Snapshot(), live);

  std::error_code ec;
  fs::remove(torn_path, ec);
}

// ---------------------------------------------------------------------------
// Handler: typed outcomes for every failure mode, byte-identity with batch.
// ---------------------------------------------------------------------------

/// Builds a loaded context over \p host for handler-level tests.
ServeContext ContextFor(const ServeConfig& config, ModelHost* host,
                        Clock* clock) {
  ServeContext context;
  context.config = &config;
  context.models = host;
  context.clock = clock;
  return context;
}

TEST_F(ServeTest, HealthzReportsModelVersion) {
  const ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  const HttpResponse response = HandleRequest(context, 1, Get("/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"model_version\":1"), std::string::npos);
}

TEST_F(ServeTest, ServedRevisionIsByteIdenticalToBatch) {
  const ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  const HttpResponse response =
      HandleRequest(context, 1, Post("/v1/revise", BodyFor(8)));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, ExpectedFor(8));
}

TEST_F(ServeTest, TransientFaultsRetryToIdenticalBytes) {
  ServeConfig config = Config();
  // Every record suffers a transient burst at serve.revise; the retry
  // policy out-lasts the bounded burst, so the response bytes must equal
  // the fault-free run exactly.
  config.fault_plan =
      FaultPlan::Parse("rate=1.0,sites=serve.revise").ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  const HttpResponse response =
      HandleRequest(context, 1, Post("/v1/revise", BodyFor(6)));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, ExpectedFor(6));
}

TEST_F(ServeTest, PermanentFaultsDegradeToOriginalPairs) {
  ServeConfig config = Config();
  config.fault_plan =
      FaultPlan::Parse("permanent=1.0,sites=serve.revise").ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  const HttpResponse response =
      HandleRequest(context, 1, Post("/v1/revise", BodyFor(4)));
  ASSERT_EQ(response.status, 200) << response.body;
  // Graceful degradation mirrors the batch pass: originals come back.
  EXPECT_EQ(response.body, BodyFor(4));
}

TEST_F(ServeTest, DeadlineExpiryIsTyped504) {
  ServeConfig config = Config();
  config.request_deadline_ms = 100;
  // Injected latency (2x the budget) advances the fake clock past the
  // request deadline on the first attempt: deterministically a 504.
  config.fault_plan =
      FaultPlan::Parse("rate=1.0,latency_us=200000,sites=serve.revise")
          .ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  FakeClock clock;
  const ServeContext context = ContextFor(config, &host, &clock);
  const HttpResponse response =
      HandleRequest(context, 1, Post("/v1/revise", BodyFor(3)));
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("DeadlineExceeded"), std::string::npos);
}

TEST_F(ServeTest, HostileBodyIsTyped400) {
  const ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  const HttpResponse response = HandleRequest(
      context, 1, Post("/v1/revise", "{\"instruction\": [[[[\n"));
  EXPECT_EQ(response.status, 400);
  const HttpResponse not_pairs =
      HandleRequest(context, 2, Post("/v1/revise", "[1,2,3]\n"));
  EXPECT_EQ(not_pairs.status, 400);
}

TEST_F(ServeTest, OversizedRecordIsTyped413) {
  ServeConfig config = Config();
  config.parse_limits.max_record_bytes = 128;
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  const std::string huge = "{\"instruction\":\"" +
                           std::string(4096, 'a') + "\",\"output\":\"b\"}\n";
  const HttpResponse response =
      HandleRequest(context, 1, Post("/v1/revise", huge));
  EXPECT_EQ(response.status, 413);
}

TEST_F(ServeTest, ParseSiteFaultFailsTheEnvelope) {
  ServeConfig config = Config();
  config.fault_plan =
      FaultPlan::Parse("permanent=1.0,sites=serve.parse").ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  const HttpResponse response =
      HandleRequest(context, 1, Post("/v1/revise", BodyFor(1)));
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("injected permanent fault"),
            std::string::npos);
}

TEST_F(ServeTest, UnknownRouteAndWrongMethodAreTyped) {
  const ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());
  EXPECT_EQ(HandleRequest(context, 1, Get("/nope")).status, 404);
  EXPECT_EQ(HandleRequest(context, 2, Get("/v1/revise")).status, 405);
  EXPECT_EQ(HandleRequest(context, 3, Post("/healthz", "")).status, 405);
}

TEST_F(ServeTest, AdminReloadEndpointSwapsAndRejectsTornArtifact) {
  const std::string path =
      (fs::temp_directory_path() / "serve_test_admin.json").string();
  const std::string good = json::ReadFile(*checkpoint_path_).ValueOrDie();
  ASSERT_TRUE(AtomicWriteFile(path, good).ok());
  ServeConfig config = Config();
  config.checkpoint = path;
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  const ServeContext context = ContextFor(config, &host, Clock::System());

  const HttpResponse ok_reload =
      HandleRequest(context, 1, Post("/admin/reload", ""));
  EXPECT_EQ(ok_reload.status, 200);
  EXPECT_NE(ok_reload.body.find("\"version\":2"), std::string::npos);

  ASSERT_TRUE(AtomicWriteFile(path, "{not json").ok());
  const HttpResponse bad_reload =
      HandleRequest(context, 2, Post("/admin/reload", ""));
  EXPECT_EQ(bad_reload.status, 503);
  EXPECT_EQ(host.version(), 2u);
  // The model from before the failed reload still serves byte-identically.
  const HttpResponse after =
      HandleRequest(context, 3, Post("/v1/revise", BodyFor(2)));
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, ExpectedFor(2));

  std::error_code ec;
  fs::remove(path, ec);
}

// ---------------------------------------------------------------------------
// Socket server: admission shedding, reload under traffic, graceful drain.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, WireRoundTripMatchesBatch) {
  const ServeConfig config = Config();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  Result<ParsedHttpResponse> health =
      HttpFetch(server.port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);

  Result<ParsedHttpResponse> revise =
      HttpFetch(server.port(), "POST", "/v1/revise", BodyFor(5));
  ASSERT_TRUE(revise.ok()) << revise.status();
  EXPECT_EQ(revise->status, 200);
  EXPECT_EQ(revise->body, ExpectedFor(5));

  server.RequestDrain();
  server.AwaitDrain();
}

TEST_F(ServeTest, QueueFullShedsWithRetryAfter) {
  ServeConfig config = Config();
  config.workers = 1;
  config.queue_depth = 1;
  // Slow every revision (transient latency on a real clock) so concurrent
  // clients pile up behind the single worker and overflow the depth-1
  // queue.
  config.fault_plan =
      FaultPlan::Parse("rate=1.0,latency_us=100000,sites=serve.revise")
          .ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> other{0};
  std::atomic<bool> saw_retry_after{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Result<ParsedHttpResponse> response = HttpFetch(
          server.port(), "POST", "/v1/revise", BodyFor(1), 30000);
      if (!response.ok()) {
        other.fetch_add(1);
        return;
      }
      if (response->status == 200) {
        ok.fetch_add(1);
      } else if (response->status == 429) {
        shed.fetch_add(1);
        if (response->headers.count("retry-after") != 0) {
          saw_retry_after.store(true);
        }
      } else {
        other.fetch_add(1);
      }
      (void)i;
    });
  }
  for (std::thread& t : clients) t.join();
  server.RequestDrain();
  server.AwaitDrain();

  // Overload degrades gracefully: every client got a typed answer, at
  // least one was shed with an explicit Retry-After, none vanished.
  EXPECT_EQ(ok.load() + shed.load() + other.load(), kClients);
  EXPECT_GE(shed.load(), 1) << "expected at least one 429 shed";
  EXPECT_TRUE(saw_retry_after.load());
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(server.answered(Outcome::kShed),
            static_cast<uint64_t>(shed.load()));
}

TEST_F(ServeTest, ReloadUnderTrafficFailsNoRequest) {
  const std::string path =
      (fs::temp_directory_path() / "serve_test_hotswap.json").string();
  const std::string good = json::ReadFile(*checkpoint_path_).ValueOrDie();
  ASSERT_TRUE(AtomicWriteFile(path, good).ok());
  ServeConfig config = Config();
  config.checkpoint = path;
  config.workers = 4;
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> traffic;
  for (int i = 0; i < 3; ++i) {
    traffic.emplace_back([&] {
      while (!stop.load()) {
        Result<ParsedHttpResponse> response =
            HttpFetch(server.port(), "POST", "/v1/revise", BodyFor(3));
        if (response.ok() && response->status == 200 &&
            response->body == ExpectedFor(3)) {
          ok.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  // Several hot reloads while traffic flows; every reload succeeds and no
  // in-flight request may fail or change bytes.
  for (int i = 0; i < 3; ++i) {
    Result<ParsedHttpResponse> reload =
        HttpFetch(server.port(), "POST", "/admin/reload", "");
    ASSERT_TRUE(reload.ok()) << reload.status();
    EXPECT_EQ(reload->status, 200);
  }
  stop.store(true);
  for (std::thread& t : traffic) t.join();
  server.RequestDrain();
  server.AwaitDrain();

  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(host.version(), 4u);  // initial load + 3 reloads

  std::error_code ec;
  fs::remove(path, ec);
}

TEST_F(ServeTest, SigtermDrainAnswersEveryAdmittedRequest) {
  // The graceful-drain harness of the issue: a burst of clients, SIGTERM
  // mid-burst, and three assertions — no admitted request goes without a
  // response, the listener closes before in-flight work finishes, and the
  // final run report validates.
  Observability::Default().Enable(/*deterministic=*/true);
  Observability::Default().trace().Reset();
  const int root = Observability::Default().trace().BeginSpan("serve");

  ServeConfig config = Config();
  config.workers = 2;
  config.queue_depth = 16;
  // Slow revisions keep requests in flight when the signal lands.
  config.fault_plan =
      FaultPlan::Parse("rate=1.0,latency_us=30000,sites=serve.revise")
          .ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  ResetServeSignalsForTest();
  InstallServeSignalHandlers();
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());
  const int port = server.port();

  constexpr int kClients = 10;
  std::atomic<int> answered{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      Result<ParsedHttpResponse> response =
          HttpFetch(port, "POST", "/v1/revise", BodyFor(2), 30000);
      if (response.ok()) {
        answered.fetch_add(1);  // A complete, parseable response.
      } else {
        refused.fetch_add(1);  // Refused/reset before admission.
      }
    });
  }
  // Let some clients get admitted, then signal mid-burst.
  Clock::System()->SleepMicros(20000);
  ASSERT_EQ(std::raise(SIGTERM), 0);
  for (std::thread& t : clients) t.join();
  server.AwaitDrain();

  // Every client either got a full response or a clean connection-level
  // refusal, and — the drain contract — every connection the server
  // ADMITTED was answered with a complete response: answered equals
  // connections_accepted exactly, so nobody was dropped mid-response.
  EXPECT_EQ(answered.load() + refused.load(), kClients);
  EXPECT_EQ(static_cast<uint64_t>(answered.load()),
            server.connections_accepted());
  EXPECT_GE(answered.load(), 1);
  // Listener closed first (and stays closed): a late connect is refused.
  Result<ParsedHttpResponse> late = HttpFetch(port, "GET", "/healthz", "");
  EXPECT_FALSE(late.ok());
  EXPECT_TRUE(server.draining());

  // The final run report must validate under the standard schema.
  Observability::Default().trace().EndSpan(root);
  RunReportOptions options;
  options.command = "serve";
  const json::Value report = BuildRunReport(options);
  const Status valid = ValidateRunReport(report);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  ResetServeSignalsForTest();
}

TEST_F(ServeTest, AcceptSiteFaultIsTypedAtTheConnection) {
  ServeConfig config = Config();
  config.fault_plan =
      FaultPlan::Parse("permanent=1.0,sites=serve.accept").ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());
  Result<ParsedHttpResponse> response =
      HttpFetch(server.port(), "GET", "/healthz", "");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 500);
  EXPECT_NE(response->body.find("injected permanent fault"),
            std::string::npos);
  server.RequestDrain();
  server.AwaitDrain();
}

TEST_F(ServeTest, FaultStreamsAreKeyedByTheAcceptSequenceNumber) {
  // The k-th accepted connection carries request id k through the whole
  // server: its serve.accept fault and its serve.parse fault are both the
  // injector's decision for item k, whichever worker serves it.
  ServeConfig config = Config();
  config.fault_plan =
      FaultPlan::Parse("rate=0.5,seed=7,sites=serve.accept+serve.parse")
          .ValueOrDie();
  const FaultInjector oracle(config.fault_plan);
  constexpr uint64_t kRequests = 24;
  std::vector<int> expected;
  uint64_t accept_faults = 0;
  uint64_t parse_faults = 0;
  for (uint64_t k = 0; k < kRequests; ++k) {
    const Status accept = oracle.Inject(FaultSite::kServeAccept, k, 1);
    const Status parse = oracle.Inject(FaultSite::kServeParse, k, 1);
    if (!accept.ok()) {
      ++accept_faults;
      expected.push_back(HttpStatusFromStatus(accept));
    } else if (!parse.ok()) {
      ++parse_faults;
      expected.push_back(HttpStatusFromStatus(parse));
    } else {
      expected.push_back(200);
    }
  }
  // The plan must exercise all three paths for the sequence to mean much.
  EXPECT_GT(accept_faults, 0u);
  EXPECT_GT(parse_faults, 0u);
  EXPECT_LT(accept_faults + parse_faults, kRequests);

  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());
  std::vector<int> served;
  for (uint64_t k = 0; k < kRequests; ++k) {
    Result<ParsedHttpResponse> response =
        HttpFetch(server.port(), "POST", "/v1/revise", BodyFor(1));
    ASSERT_TRUE(response.ok()) << response.status();
    served.push_back(response->status);
  }
  server.RequestDrain();
  server.AwaitDrain();
  EXPECT_EQ(served, expected);
  EXPECT_EQ(server.connections_accepted(), kRequests);
}

TEST_F(ServeTest, OutcomeTallyAgreesWithTheRunReportCounters) {
  // Every response is classified once: the server's tally and the
  // serve.requests_* counters are the same numbers, and they add up to
  // the connections accepted. A transient accept fault answers 503 or
  // 504, so the plan covers two outcome classes.
  Observability::Default().Enable(/*deterministic=*/true);
  MetricsRegistry::Default().Reset();
  ServeConfig config = Config();
  config.fault_plan =
      FaultPlan::Parse("rate=1.0,seed=7,sites=serve.accept").ValueOrDie();
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  RevisionServer server(config, &host);
  ASSERT_TRUE(server.StartServing().ok());
  constexpr uint64_t kRequests = 30;
  for (uint64_t k = 0; k < kRequests; ++k) {
    Result<ParsedHttpResponse> response =
        HttpFetch(server.port(), "GET", "/healthz", "");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_GE(response->status, 500);
  }
  server.RequestDrain();
  server.AwaitDrain();

  const std::vector<std::pair<Outcome, const char*>> table = {
      {Outcome::kOk, "serve.requests_ok"},
      {Outcome::kShed, "serve.requests_shed"},
      {Outcome::kClientError, "serve.requests_client_error"},
      {Outcome::kServerError, "serve.requests_server_error"},
      {Outcome::kDeadline, "serve.requests_deadline_exceeded"},
  };
  MetricsRegistry& registry = MetricsRegistry::Default();
  uint64_t total = 0;
  for (const auto& [outcome, metric] : table) {
    EXPECT_EQ(server.answered(outcome), registry.FindCounter(metric)->value())
        << metric;
    total += server.answered(outcome);
  }
  EXPECT_GT(server.answered(Outcome::kServerError), 0u);
  EXPECT_GT(server.answered(Outcome::kDeadline), 0u);
  EXPECT_EQ(total, kRequests);
  EXPECT_EQ(server.connections_accepted(), kRequests);
  EXPECT_EQ(
      registry.FindCounter("serve.connections_accepted")->value(), kRequests);
  // Refused connections were never read, so they time nothing.
  EXPECT_EQ(registry.FindHistogram("serve.latency_health_micros")->count(),
            0u);
  Observability::Default().Disable();
}

TEST_F(ServeTest, StartRejectsInvalidConfigAndMissingModel) {
  ServeConfig config = Config();
  config.workers = 0;
  ModelHost host(config.checkpoint, config.coach);
  ASSERT_TRUE(host.Load().ok());
  {
    RevisionServer server(config, &host);
    EXPECT_EQ(server.StartServing().code(), StatusCode::kInvalidArgument);
  }
  ServeConfig ok_config = Config();
  ModelHost unloaded(ok_config.checkpoint, ok_config.coach);
  RevisionServer server(ok_config, &unloaded);
  EXPECT_EQ(server.StartServing().code(), StatusCode::kFailedPrecondition);
}

TEST(ServeConfigTest, ValidateRejectsOutOfRangeValues) {
  ServeConfig config;
  config.checkpoint = "coach.json";
  EXPECT_TRUE(config.Validate().ok());
  config.port = -1;
  EXPECT_FALSE(config.Validate().ok());
  config.port = 65536;
  EXPECT_FALSE(config.Validate().ok());
  config = ServeConfig{};
  config.workers = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ServeConfig{};
  config.queue_depth = -3;
  EXPECT_FALSE(config.Validate().ok());
  config = ServeConfig{};
  config.request_deadline_ms = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ServeConfig{};
  config.checkpoint.clear();
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace serve
}  // namespace coachlm
