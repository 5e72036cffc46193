// Outside-in benchmark program for the coachlm library and the production
// `coachlm serve` daemon.
//
//   perfbench setup    --dir D --seed N ...   corpus + study + train
//   perfbench run      --workload W ...       one measured workload
//   perfbench capacity --coachlm BIN ...      closed-loop serve capacity
//
// perfbench/run.py builds this binary, runs `setup` and `run`, and turns
// their last stdout lines (one JSON object each) into the benchmark result.
// Every number here is timed from outside the program: around calls into
// each src/ module's public functions, or around HTTP exchanges with the
// daemon. Spans (--trace 1) are recorded only by this file, kept in memory,
// and written when the run ends. See perfbench/README.md for the metrics.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "coach/coach_config.h"
#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/clock.h"
#include "common/execution.h"
#include "common/rng.h"
#include "data/corpus_io.h"
#include "data/instruction_pair.h"
#include "data/record_stream.h"
#include "expert/pipeline.h"
#include "json/json.h"
#include "json/jsonl.h"
#include "json/parse_limits.h"
#include "lm/pair_text.h"
#include "lm/rule_compile.h"
#include "serve/client.h"
#include "serve/handler.h"
#include "serve/http.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"
#include "synth/content_engine.h"
#include "synth/generator.h"
#include "text/similarity.h"

namespace perfbench {
namespace {

using coachlm::InstructionDataset;
using coachlm::InstructionPair;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Small utilities.

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void Must(const coachlm::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Must(coachlm::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

/// `--key value` flags after the subcommand. Every flag is required: the
/// values live in perfbench/config.json, and run.py passes all of them.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key) const { return std::stoll(Str(key)); }
  size_t Size(const std::string& key) const {
    const int64_t value = Int(key);
    if (value < 0) Die("--" + key + " must not be negative");
    return static_cast<size_t>(value);
  }
  double Double(const std::string& key) const { return std::stod(Str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

// Settings that take one value in every run. Each run prints them in its
// `# settings:` note, which is the record of what was measured.
constexpr int kServeWorkers = 2;      // plus the generator thread or the two
constexpr int kBulkClients = 2;       // bulk clients, within the 4 cores
constexpr size_t kBulkPairs = 64;     // pairs per serve-bulk request
constexpr int kQueueDepth = 256;      // absorbs a host stall instead of shedding
constexpr int kBoots = 3;             // daemon boots; serve setup_s takes the median
constexpr size_t kSetupThreads = 1;   // one thread keeps setup repetitions steady
constexpr int kShards = 8;            // binary shards of the ingest round trip

/// Worker threads of the batch pass and of reference revision: nproc.
size_t HostThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Peak resident set (VmHWM) of \p pid, or of this process when pid <= 0.
double PeakRssMb(pid_t pid) {
  const std::string path =
      pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Seeded sample of \p k distinct indices below \p n, in ascending order.
std::vector<size_t> SampleIndices(size_t n, size_t k, uint64_t seed) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  coachlm::Rng rng(seed);
  k = std::min(k, n);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextBelow(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

/// Ordered map of metric name -> value, dumped with all significant digits.
using Metrics = std::map<std::string, double>;

std::string DumpMetrics(const Metrics& metrics) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ",";
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0.0);
    out += "\"" + name + "\":" + buf;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Spans recorded from the benchmark's side of each public call.

struct Span {
  const char* name;  // Always a string literal: "<layer>.<call>".
  uint64_t id;       // Pair id or request index; shared by one item's spans.
  int parent;        // Index of the enclosing span, -1 for a root.
  int64_t start_ns;
  int64_t end_ns;
};

/// Driver-thread-only span recorder. Disabled, Open/Close are no-ops, so
/// an untraced replay runs the same code minus the bookkeeping.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int Open(const char* name, uint64_t id) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, id, stack_.empty() ? -1 : stack_.back(), NowNs(), 0});
    stack_.push_back(index);
    return index;
  }

  void Close(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }

  /// Records an already-finished span (e.g. a request timed on a client
  /// thread) under \p parent; returns its index (-1 when disabled).
  int Add(const char* name, uint64_t id, int64_t start_ns, int64_t end_ns,
          int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, id, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  size_t size() const { return spans_.size(); }

  /// Self time per layer (the span-name prefix before the first '.'; the
  /// benchmark's own root spans count as "bench"): each span's duration
  /// minus the union of its children's intervals.
  Metrics SelfMsByLayer() const {
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<size_t>(spans_[i].parent)].push_back(i);
      }
    }
    static const char* const kLayers[] = {"data", "json", "coach",
                                          "lm",   "text", "serve"};
    Metrics self;
    for (const char* layer : kLayers) self[std::string("self.") + layer + "_ms"] = 0;
    self["self.bench_ms"] = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (size_t c : children[i]) {
        cover.emplace_back(std::max(span.start_ns, spans_[c].start_ns),
                           std::min(span.end_ns, spans_[c].end_ns));
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = span.start_ns;
      for (const auto& [begin, end] : cover) {
        const int64_t from = std::max(begin, reach);
        if (end > from) {
          covered += end - from;
          reach = end;
        }
      }
      const std::string name = span.name;
      std::string layer = "bench";
      for (const char* known : kLayers) {
        if (name.rfind(std::string(known) + ".", 0) == 0) layer = known;
      }
      self["self." + layer + "_ms"] +=
          static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
    }
    return self;
  }

  void Write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"start_us\":"
          << (s.start_ns - spans_[0].start_ns) / 1000
          << ",\"end_us\":" << (s.end_ns - spans_[0].start_ns) / 1000 << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one block on the main thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t id)
      : tracer_(tracer), index_(tracer->Open(name, id)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Times \p fn under a span; returns the elapsed nanoseconds.
template <typename Fn>
int64_t Timed(Tracer* tracer, const char* name, uint64_t id, Fn&& fn) {
  const int span = tracer->Open(name, id);
  const int64_t start = NowNs();
  fn();
  const int64_t elapsed = NowNs() - start;
  tracer->Close(span);
  return elapsed;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Shared state of one `run`.

coachlm::coach::CoachConfig ModelConfig() {
  // The CLI defaults: alpha 0.3 on the ChatGLM2 backbone, compiled rules.
  return coachlm::coach::CoachConfig();
}

struct Env {
  std::string workload;
  std::string dir;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  size_t threads = 1;
  std::string corpus_path;
  std::string checkpoint_path;
  std::vector<std::string> lines;  // corpus.jsonl, one pair per entry
  std::unique_ptr<coachlm::coach::CoachLm> model;
  double load_checkpoint_ms = 0;
};

void LoadModel(Env* env) {
  const int64_t start = NowNs();
  env->model = std::make_unique<coachlm::coach::CoachLm>(
      Must(coachlm::coach::CoachLm::LoadCheckpoint(env->checkpoint_path,
                                                   ModelConfig()),
           "load checkpoint"));
  env->load_checkpoint_ms = static_cast<double>(NowNs() - start) / 1e6;
}

InstructionPair PairFromLine(const std::string& line) {
  return Must(InstructionPair::FromJson(Must(coachlm::json::Parse(line),
                                             "parse corpus line")),
              "decode corpus line");
}

std::string ReviseLine(const coachlm::coach::CoachLm& model,
                       const InstructionPair& pair) {
  coachlm::Rng rng = coachlm::DeriveRng(model.config().seed, pair.id);
  return model.Revise(pair, &rng).ToJson().Dump();
}

/// Result of one run, before run.py adds setup_s.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool valid = true;
  std::vector<std::string> notes;
  Metrics e2e;
  Metrics layers;
  double client_p50_us = 0;  // serve: median successful request latency
};

void Fail(Outcome* out, uint64_t count, const std::string& why) {
  out->failed += count;
  out->notes.push_back("FAIL: " + why);
}

// ---------------------------------------------------------------------------
// Data-layer passes shared by batch-52k, ingest-roundtrip and the probes.

struct BatchPass {
  int64_t decode_ns = 0, revise_ns = 0, encode_ns = 0, wall_ns = 0;
  coachlm::coach::RevisionPassStats stats;
};

/// JsonlRecordReader/ReadAllRecords -> CoachLm::ReviseDataset ->
/// WriteAllRecords/Close: the offline cleaning job.
BatchPass RunBatchPass(const Env& env, const std::string& in,
                       const std::string& out,
                       const coachlm::ExecutionContext& exec, Tracer* tracer,
                       uint64_t pass_id) {
  BatchPass pass;
  const ScopedSpan root(tracer, "batch.pass", pass_id);
  const int64_t start = NowNs();
  InstructionDataset corpus;
  pass.decode_ns = Timed(tracer, "data.decode", pass_id, [&] {
    auto reader = Must(coachlm::JsonlRecordReader::Open(in), "open " + in);
    corpus = Must(coachlm::ReadAllRecords(reader.get()), "read " + in);
  });
  InstructionDataset revised;
  pass.revise_ns = Timed(tracer, "coach.revise_dataset", pass_id, [&] {
    revised = env.model->ReviseDataset(corpus, {}, &pass.stats, exec);
  });
  pass.encode_ns = Timed(tracer, "data.encode", pass_id, [&] {
    coachlm::JsonlRecordWriter writer(out);
    Must(coachlm::WriteAllRecords(&writer, revised), "write " + out);
    Must(writer.Close(), "close " + out);
  });
  pass.wall_ns = NowNs() - start;
  return pass;
}

struct RoundtripPass {
  int64_t jsonl_decode_ns = 0, binary_encode_ns = 0, binary_decode_ns = 0,
          jsonl_encode_ns = 0, wall_ns = 0;
  uint64_t bytes_read = 0, bytes_written = 0;
  size_t pairs = 0;
};

/// JSONL -> OpenCorpusWriter (8 binary shards) -> OpenCorpusReader on the
/// manifest -> JSONL.
RoundtripPass RunRoundtripPass(const std::string& in, const std::string& dir,
                               const std::string& out, Tracer* tracer,
                               uint64_t pass_id) {
  RoundtripPass pass;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string manifest = dir + "/corpus.manifest.json";
  const ScopedSpan root(tracer, "ingest.roundtrip", pass_id);
  const int64_t start = NowNs();
  InstructionDataset corpus;
  pass.jsonl_decode_ns = Timed(tracer, "data.jsonl_decode", pass_id, [&] {
    auto reader = Must(coachlm::OpenCorpusReader(in), "open " + in);
    corpus = Must(coachlm::ReadAllRecords(reader.get()), "read " + in);
  });
  pass.binary_encode_ns = Timed(tracer, "data.binary_encode", pass_id, [&] {
    coachlm::CorpusWriteOptions options;
    options.format = coachlm::CorpusFormat::kBinary;
    options.shards = kShards;
    auto writer = Must(coachlm::OpenCorpusWriter(manifest, options),
                       "open " + manifest);
    Must(coachlm::WriteAllRecords(writer.get(), corpus), "write shards");
    Must(writer->Close(), "close shards");
  });
  InstructionDataset decoded;
  pass.binary_decode_ns = Timed(tracer, "data.binary_decode", pass_id, [&] {
    auto reader = Must(coachlm::OpenCorpusReader(manifest), "open manifest");
    decoded = Must(coachlm::ReadAllRecords(reader.get()), "read shards");
  });
  pass.jsonl_encode_ns = Timed(tracer, "data.jsonl_encode", pass_id, [&] {
    coachlm::CorpusWriteOptions options;
    options.format = coachlm::CorpusFormat::kJsonl;
    auto writer = Must(coachlm::OpenCorpusWriter(out, options), "open " + out);
    Must(coachlm::WriteAllRecords(writer.get(), decoded), "write " + out);
    Must(writer->Close(), "close " + out);
  });
  pass.wall_ns = NowNs() - start;
  pass.pairs = corpus.size();
  const uint64_t shard_bytes = DirBytes(dir);
  pass.bytes_read = fs::file_size(in) + shard_bytes;
  pass.bytes_written = shard_bytes + fs::file_size(out);
  return pass;
}

/// Compares \p actual against \p expected line by line; returns the number
/// of differing lines (a length difference counts as one more).
uint64_t CountLineMismatches(const std::string& expected,
                             const std::string& actual) {
  if (expected == actual) return 0;
  const std::vector<std::string> a = SplitLines(expected);
  const std::vector<std::string> b = SplitLines(actual);
  uint64_t bad = a.size() == b.size() ? 0 : 1;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) ++bad;
  }
  return std::max<uint64_t>(bad, 1);
}

void FlipByte(std::string* bytes, size_t at) {
  if (bytes->empty()) return;
  (*bytes)[at % bytes->size()] ^= 0x20;
}

// ---------------------------------------------------------------------------
// The serve daemon and its HTTP clients.

int FreeLoopbackPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Die("cannot find a free loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// Non-blocking connect to the loopback \p port for the open-loop generator.
int OpenSocket(int port, bool* in_progress) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  *in_progress = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EINPROGRESS) {
      *in_progress = true;
    } else {
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

std::string BuildRequest(const std::string& method, const std::string& target,
                         const std::string& body) {
  return method + " " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/x-ndjson\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct Exchange {
  bool transport_ok = false;
  int status = 0;
  std::string body;
};

Exchange ParseExchange(const std::string& raw) {
  Exchange ex;
  coachlm::Result<coachlm::serve::ParsedHttpResponse> parsed =
      coachlm::serve::ParseHttpResponse(raw);
  if (!parsed.ok()) return ex;
  ex.transport_ok = true;
  ex.status = parsed->status;
  ex.body = std::move(parsed).ValueOrDie().body;
  return ex;
}

/// One blocking exchange on a fresh connection through the library's own
/// client. The timeout bounds connect and every socket wait, so a wedged
/// daemon fails the request instead of hanging the run.
Exchange Fetch(int port, const std::string& method, const std::string& target,
               const std::string& body) {
  constexpr int64_t kTimeoutMs = 10000;
  Exchange ex;
  coachlm::Result<coachlm::serve::ParsedHttpResponse> response =
      coachlm::serve::HttpFetch(port, method, target, body, kTimeoutMs);
  if (!response.ok()) return ex;
  ex.transport_ok = true;
  ex.status = response->status;
  ex.body = std::move(response).ValueOrDie().body;
  return ex;
}

struct Daemon {
  pid_t pid = -1;
  int port = 0;
  double boot_s = 0;
};

/// Starts `coachlm serve` and waits until /healthz answers 200.
Daemon BootDaemon(const std::string& binary, const std::string& checkpoint,
                  const std::string& log) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    Daemon daemon;
    daemon.port = FreeLoopbackPort();
    const std::string port = std::to_string(daemon.port);
    const std::string workers_arg = std::to_string(kServeWorkers);
    const std::string depth_arg = std::to_string(kQueueDepth);
    std::vector<std::string> args = {binary,          "serve",
                                     "--port",        port,
                                     "--checkpoint",  checkpoint,
                                     "--serve-workers", workers_arg,
                                     "--queue-depth", depth_arg};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int64_t start = NowNs();
    const pid_t pid = ::fork();
    if (pid < 0) Die("fork failed");
    if (pid == 0) {
      // The daemon must not outlive this process, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    daemon.pid = pid;
    while (NowNs() - start < 60LL * 1000000000LL) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        daemon.pid = -1;
        break;  // Exited (e.g. lost the port race): try another port.
      }
      const Exchange ex = Fetch(daemon.port, "GET", "/healthz", "");
      if (ex.transport_ok && ex.status == 200) {
        daemon.boot_s = Seconds(NowNs() - start);
        return daemon;
      }
      ::usleep(2000);
    }
    if (daemon.pid > 0) {
      ::kill(daemon.pid, SIGKILL);
      ::waitpid(daemon.pid, nullptr, 0);
    }
  }
  Die("coachlm serve did not become healthy; see " + log);
}

/// SIGTERM (graceful drain), then SIGKILL after 20 s; always reaped.
void StopDaemon(Daemon* daemon) {
  if (daemon->pid <= 0) return;
  ::kill(daemon->pid, SIGTERM);
  const int64_t start = NowNs();
  while (::waitpid(daemon->pid, nullptr, WNOHANG) == 0) {
    if (NowNs() - start > 20LL * 1000000000LL) {
      ::kill(daemon->pid, SIGKILL);
      ::waitpid(daemon->pid, nullptr, 0);
      break;
    }
    ::usleep(5000);
  }
  daemon->pid = -1;
}

/// Client-side record of one request.
struct RequestRecord {
  size_t body = 0;        // Index into the request pool.
  int64_t due_ns = 0;     // Scheduled send time (open loop) or send time.
  int64_t start_ns = 0;   // When the connect was issued.
  int64_t done_ns = 0;    // When the response was complete (0 = never).
  int status = 0;
  bool transport_ok = false;
  bool match = false;
};

/// The request pool of a serve workload: raw HTTP requests plus the body
/// the in-process CoachLm::Revise says each must be answered with.
struct RequestPool {
  std::vector<std::string> bodies;    // JSONL request bodies
  std::vector<std::string> requests;  // full HTTP requests
  std::vector<std::string> expected;  // expected response bodies
  std::vector<size_t> pair_counts;
};

RequestPool BuildPool(const Env& env, size_t bodies, size_t pairs_per_body,
                      uint64_t seed) {
  RequestPool pool;
  const std::vector<size_t> picks =
      SampleIndices(env.lines.size(), bodies * pairs_per_body, seed);
  // Shuffle the ascending sample so one body mixes pairs from the whole
  // corpus, deterministically.
  std::vector<size_t> order = picks;
  coachlm::Rng rng(seed ^ 0x5eedULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.NextBelow(i))]);
  }
  pool.bodies.resize(bodies);
  pool.expected.resize(bodies);
  pool.pair_counts.assign(bodies, 0);
  for (size_t b = 0; b < bodies; ++b) {
    for (size_t k = 0; k < pairs_per_body && b * pairs_per_body + k < order.size();
         ++k) {
      pool.bodies[b] += env.lines[order[b * pairs_per_body + k]] + "\n";
      ++pool.pair_counts[b];
    }
  }
  // Expected bodies: in-process CoachLm::Revise with DeriveRng(seed, id),
  // exactly what the daemon promises to be byte-identical to.
  const coachlm::ExecutionContext exec(env.threads);
  exec.ParallelFor(bodies, [&](size_t b) {
    std::string out;
    for (const std::string& line : SplitLines(pool.bodies[b])) {
      out += ReviseLine(*env.model, PairFromLine(line)) + "\n";
    }
    pool.expected[b] = std::move(out);
  });
  for (const std::string& body : pool.bodies) {
    pool.requests.push_back(BuildRequest("POST", "/v1/revise", body));
  }
  return pool;
}

/// True when \p ex answered pool body \p body correctly. While *corrupt is
/// set, the first response checked gets one flipped byte first: the
/// self-check's proof that this comparison fires.
bool Matches(const Exchange& ex, const RequestPool& pool, size_t body,
             std::atomic<bool>* corrupt) {
  if (!ex.transport_ok) return false;
  if (corrupt->exchange(false)) {
    std::string copy = ex.body;
    FlipByte(&copy, copy.size() / 2);
    return copy == pool.expected[body];
  }
  return ex.body == pool.expected[body];
}

/// Open loop: requests due at a fixed rate (constant spacing) for \p seconds,
/// each on its own non-blocking connection, driven by one epoll thread. The
/// seed picks each request's body. Latency counts from the due time, so a
/// stall also charges the requests it delayed.
std::vector<RequestRecord> RunOpenLoop(int port, const RequestPool& pool,
                                       double rate, double seconds,
                                       uint64_t seed, std::atomic<bool>* corrupt) {
  coachlm::Rng rng(seed);
  std::vector<RequestRecord> records(static_cast<size_t>(rate * seconds));
  const int64_t lead_ns = 5000000;
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].body = static_cast<size_t>(rng.NextBelow(pool.requests.size()));
    records[i].due_ns = static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
  }
  struct Conn {
    int fd = -1;
    size_t sent = 0;
    bool connected = false;
    std::string in;
  };
  std::vector<Conn> conns(records.size());
  const int epfd = ::epoll_create1(0);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  const uint64_t kTimer = UINT64_MAX;
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = kTimer;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, tfd, &tev);

  const int64_t base = NowNs() + lead_ns;
  for (RequestRecord& r : records) r.due_ns += base;
  size_t next = 0;
  size_t inflight = 0;
  const int64_t give_up = base + static_cast<int64_t>(seconds * 1e9) +
                          30LL * 1000000000LL;

  auto finish = [&](size_t i, bool ok) {
    Conn& c = conns[i];
    RequestRecord& r = records[i];
    r.done_ns = NowNs();
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    --inflight;
    if (!ok) return;
    const Exchange ex = ParseExchange(c.in);
    r.transport_ok = ex.transport_ok;
    r.status = ex.status;
    r.match = Matches(ex, pool, r.body, corrupt);
    std::string().swap(c.in);
  };

  auto arm = [&](int64_t at_ns) {
    itimerspec spec{};
    spec.it_value.tv_sec = at_ns / 1000000000LL;
    spec.it_value.tv_nsec = at_ns % 1000000000LL;
    ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &spec, nullptr);
  };

  epoll_event events[256];
  if (!records.empty()) arm(records[0].due_ns);
  while ((next < records.size() || inflight > 0) && NowNs() < give_up) {
    int64_t now = NowNs();
    while (next < records.size() && records[next].due_ns <= now) {
      RequestRecord& r = records[next];
      r.start_ns = now;
      bool in_progress = false;
      const int fd = OpenSocket(port, &in_progress);
      if (fd < 0) {
        r.done_ns = now;  // Transport error: counts as failed.
      } else {
        conns[next].fd = fd;
        conns[next].connected = !in_progress;
        epoll_event ev{};
        ev.events = EPOLLOUT;
        ev.data.u64 = next;
        ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
        ++inflight;
      }
      ++next;
      now = NowNs();
    }
    if (next < records.size()) arm(records[next].due_ns);
    const int n = ::epoll_wait(epfd, events, 256,
                               next < records.size() ? -1 : 100);
    for (int e = 0; e < n; ++e) {
      const uint64_t key = events[e].data.u64;
      if (key == kTimer) {
        uint64_t expirations = 0;
        (void)!::read(tfd, &expirations, sizeof(expirations));
        continue;
      }
      const size_t i = static_cast<size_t>(key);
      Conn& c = conns[i];
      if (c.fd < 0) continue;
      const std::string& request = pool.requests[records[i].body];
      if (c.sent < request.size()) {
        if (!c.connected) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            finish(i, false);
            continue;
          }
          c.connected = true;
        }
        const ssize_t w = ::send(c.fd, request.data() + c.sent,
                                 request.size() - c.sent, MSG_NOSIGNAL);
        if (w < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        if (w <= 0) {
          finish(i, false);
          continue;
        }
        c.sent += static_cast<size_t>(w);
        if (c.sent == request.size()) {
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u64 = i;
          ::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev);
        }
        continue;
      }
      char buffer[16 * 1024];
      while (true) {
        const ssize_t got = ::recv(c.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          c.in.append(buffer, static_cast<size_t>(got));
          continue;
        }
        if (got == 0) {
          finish(i, true);
        } else if (errno != EAGAIN && errno != EINTR) {
          finish(i, false);
        }
        break;
      }
    }
  }
  for (size_t i = 0; i < conns.size(); ++i) {
    if (conns[i].fd >= 0) {
      ::close(conns[i].fd);
      records[i].done_ns = 0;
    }
  }
  ::close(tfd);
  ::close(epfd);
  return records;
}

/// Closed loop: \p clients threads, each sending its next request only
/// after the previous response, for \p seconds.
std::vector<RequestRecord> RunClosedLoop(int port, const RequestPool& pool,
                                         int clients, double seconds,
                                         uint64_t seed, std::atomic<bool>* corrupt) {
  std::vector<std::vector<RequestRecord>> per_client(static_cast<size_t>(clients));
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      coachlm::Rng rng(seed + static_cast<uint64_t>(c) * 7919);
      std::vector<RequestRecord>& mine = per_client[static_cast<size_t>(c)];
      while (NowNs() < end) {
        RequestRecord r;
        r.body = static_cast<size_t>(rng.NextBelow(pool.requests.size()));
        r.due_ns = r.start_ns = NowNs();
        const Exchange ex = Fetch(port, "POST", "/v1/revise", pool.bodies[r.body]);
        r.done_ns = NowNs();
        r.transport_ok = ex.transport_ok;
        r.status = ex.status;
        r.match = Matches(ex, pool, r.body, corrupt);
        mine.push_back(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<RequestRecord> all;
  for (auto& mine : per_client) all.insert(all.end(), mine.begin(), mine.end());
  std::sort(all.begin(), all.end(), [](const RequestRecord& a,
                                       const RequestRecord& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

// ---------------------------------------------------------------------------
// Per-pair and per-request replays: the layer ledger.

struct ReplayTotals {
  std::map<std::string, std::vector<double>> us;  // per-call durations
  coachlm::coach::RevisionPassStats stats;
  size_t pairs = 0;
  size_t handler_mismatches = 0;
  int64_t wall_ns = 0;
};

/// Serial replay of each sampled pair through every layer's public calls.
/// Every call runs on the pair's own inputs; Revise and ReviseToText draw
/// the same DeriveRng(seed, id) stream the batch and serve paths use.
ReplayTotals ReplayPairs(const Env& env, const std::vector<std::string>& lines,
                         coachlm::serve::ServeContext* serve_context,
                         Tracer* tracer) {
  const coachlm::coach::CoachLm& model = *env.model;
  const coachlm::lm::BackboneModel& backbone = model.backbone();
  const std::shared_ptr<const coachlm::lm::CompiledRuleSet> rules = model.compiled_rules();
  if (rules == nullptr) Die("the model has no compiled rule set to probe");
  const coachlm::lm::CompiledRuleSet& compiled = *rules;
  const std::unordered_set<std::string> no_training_pairs;
  ReplayTotals totals;
  size_t sink = 0;
  auto record = [&](const char* name, int64_t ns) {
    totals.us[name].push_back(static_cast<double>(ns) / 1e3);
  };
  const int64_t start = NowNs();
  for (const std::string& line : lines) {
    const uint64_t id = PairFromLine(line).id;  // Untimed: names the spans.
    const ScopedSpan root(tracer, "replay.pair", id);
    coachlm::json::Value value;
    record("json.parse_line", Timed(tracer, "json.parse_line", id, [&] {
             value = Must(coachlm::json::Parse(line), "parse line");
           }));
    InstructionPair pair;
    record("data.from_json", Timed(tracer, "data.from_json", id, [&] {
             pair = Must(InstructionPair::FromJson(value), "decode pair");
           }));
    record("coach.leakage_guard", Timed(tracer, "coach.leakage_guard", id, [&] {
             sink += no_training_pairs.count(coachlm::lm::SerializePair(pair));
           }));
    std::string serialized;
    record("lm.serialize_pair", Timed(tracer, "lm.serialize_pair", id, [&] {
             serialized = coachlm::lm::SerializePair(pair);
           }));
    record("lm.deserialize_pair", Timed(tracer, "lm.deserialize_pair", id, [&] {
             sink += coachlm::lm::DeserializePair(serialized).ok();
           }));
    {
      // Untimed first touch of this pair's data. Generate and revise then
      // alternate which runs first, so cache warmth cancels out of their
      // difference (the post-processing) over the sample.
      coachlm::Rng rng = coachlm::DeriveRng(model.config().seed, id);
      sink += model.Revise(pair, &rng).output.size();
    }
    InstructionPair revised;
    auto generate = [&] {
      record("coach.generate", Timed(tracer, "coach.generate", id, [&] {
               coachlm::Rng rng = coachlm::DeriveRng(model.config().seed, id);
               sink += model.ReviseToText(pair, &rng).size();
             }));
    };
    auto revise = [&] {
      record("coach.revise", Timed(tracer, "coach.revise", id, [&] {
               coachlm::Rng rng = coachlm::DeriveRng(model.config().seed, id);
               revised = model.Revise(pair, &rng, &totals.stats);
             }));
    };
    if (totals.pairs % 2 == 0) {
      generate();
      revise();
    } else {
      revise();
      generate();
    }
    record("lm.topical_agreement", Timed(tracer, "lm.topical_agreement", id, [&] {
             sink += backbone.TopicalAgreement(pair.FullInstruction(),
                                               pair.output) > 0.5;
           }));
    const std::string context = revised.instruction + "\n" + pair.input;
    record("text.content_words", Timed(tracer, "text.content_words", id, [&] {
             sink += coachlm::similarity::ContentWords(context).size();
           }));
    record("lm.retrieve_relevant", Timed(tracer, "lm.retrieve_relevant", id, [&] {
             sink += backbone.RetrieveRelevant(context, pair.output, 1).size();
           }));
    record("lm.rule_match", Timed(tracer, "lm.rule_match", id, [&] {
             for (const std::string* text : {&pair.instruction, &pair.output}) {
               coachlm::lm::RuleMatcher matcher(compiled, *text);
               for (uint32_t p = 0; p < compiled.num_patterns(); ++p) {
                 sink += matcher.Contains(p, *text);
               }
             }
           }));
    std::string dumped;
    record("json.dump_pair", Timed(tracer, "json.dump_pair", id, [&] {
             dumped = revised.ToJson().Dump();
           }));
    if (serve_context != nullptr) {
      // The same pair as a one-pair /v1/revise request, in process.
      const std::string raw = BuildRequest("POST", "/v1/revise", line + "\n");
      coachlm::serve::HttpRequest request;
      record("serve.http_parse", Timed(tracer, "serve.http_parse", id, [&] {
               request = Must(coachlm::serve::ParseHttpRequest(raw), "parse http");
             }));
      coachlm::serve::HttpResponse response;
      record("serve.handler", Timed(tracer, "serve.handler", id, [&] {
               response = coachlm::serve::HandleRequest(*serve_context, id, request);
             }));
      record("serve.response_serialize",
             Timed(tracer, "serve.response_serialize", id,
                   [&] { sink += response.Serialize().size(); }));
      if (response.status != 200 || response.body != dumped + "\n") {
        ++totals.handler_mismatches;
      }
    }
    ++totals.pairs;
  }
  totals.wall_ns = NowNs() - start;
  if (sink == 0) std::fprintf(stderr, "perfbench: empty replay\n");
  return totals;
}

/// In-process replay of whole request bodies (serve-bulk's 64-pair shape):
/// ParseHttpRequest, HandleRequest and Serialize per request, plus the
/// handler's own public constituents (ParseLines, FromJson, Revise, Dump)
/// so the handler ledger can be checked from outside.
struct HandlerReplay {
  std::vector<double> parse_us, handler_us, serialize_us, parts_us;
  size_t mismatches = 0;
};

HandlerReplay ReplayRequests(const Env& env, const RequestPool& pool,
                             const std::vector<size_t>& bodies,
                             coachlm::serve::ServeContext* serve_context,
                             Tracer* tracer) {
  HandlerReplay out;
  const coachlm::coach::CoachLm& model = *env.model;
  for (size_t b : bodies) {
    const ScopedSpan root(tracer, "replay.request", b);
    coachlm::serve::HttpRequest request;
    out.parse_us.push_back(Timed(tracer, "serve.http_parse", b, [&] {
      request = Must(coachlm::serve::ParseHttpRequest(pool.requests[b]), "parse http");
    }) / 1e3);
    coachlm::serve::HttpResponse response;
    out.handler_us.push_back(Timed(tracer, "serve.handler", b, [&] {
      response = coachlm::serve::HandleRequest(*serve_context, b, request);
    }) / 1e3);
    out.serialize_us.push_back(Timed(tracer, "serve.response_serialize", b, [&] {
      (void)response.Serialize();
    }) / 1e3);
    if (response.status != 200 || response.body != pool.expected[b]) {
      ++out.mismatches;
    }
    int64_t parts = 0;
    std::vector<coachlm::json::Value> values;
    parts += Timed(tracer, "json.parse_lines", b, [&] {
      values = Must(coachlm::json::ParseLines(request.body,
                                              coachlm::json::ParseLimits::Default()),
                    "parse body");
    });
    std::string body;
    for (const coachlm::json::Value& value : values) {
      InstructionPair pair;
      parts += Timed(tracer, "data.from_json", b, [&] {
        pair = Must(InstructionPair::FromJson(value), "decode pair");
      });
      InstructionPair revised;
      parts += Timed(tracer, "coach.revise", b, [&] {
        coachlm::Rng rng = coachlm::DeriveRng(model.config().seed, pair.id);
        revised = model.Revise(pair, &rng);
      });
      parts += Timed(tracer, "json.dump_pair", b, [&] {
        body += revised.ToJson().Dump();
        body += '\n';
      });
    }
    out.parts_us.push_back(static_cast<double>(parts) / 1e3);
  }
  return out;
}

double MeanOf(const ReplayTotals& totals, const std::string& name) {
  const auto it = totals.us.find(name);
  if (it == totals.us.end() || it->second.empty()) Die("the replay never timed " + name);
  return Mean(it->second);
}

/// Per-layer metrics of the pair replay, plus the name of the largest
/// per-pair revise sub-call.
void LayerMetricsFromReplay(const ReplayTotals& r, Outcome* out) {
  Metrics& m = out->layers;
  m["json.parse_line_us"] = MeanOf(r, "json.parse_line");
  m["data.from_json_us"] = MeanOf(r, "data.from_json");
  m["coach.leakage_guard_us"] = MeanOf(r, "coach.leakage_guard");
  m["lm.serialize_pair_us"] = MeanOf(r, "lm.serialize_pair");
  m["lm.deserialize_pair_us"] = MeanOf(r, "lm.deserialize_pair");
  m["coach.generate_us"] = MeanOf(r, "coach.generate");
  m["coach.revise_us"] = MeanOf(r, "coach.revise");
  m["coach.postprocess_us"] = m["coach.revise_us"] - m["coach.generate_us"];
  m["lm.topical_agreement_us"] = MeanOf(r, "lm.topical_agreement");
  m["text.content_words_us"] = MeanOf(r, "text.content_words");
  m["lm.retrieve_relevant_us"] = MeanOf(r, "lm.retrieve_relevant");
  m["lm.rule_match_us"] = MeanOf(r, "lm.rule_match");
  m["json.dump_pair_us"] = MeanOf(r, "json.dump_pair");
  const double attempted = std::max<double>(1.0, static_cast<double>(r.stats.total));
  m["coach.changed_ratio"] = static_cast<double>(r.stats.changed) / attempted;
  m["coach.invalid_replaced_ratio"] =
      static_cast<double>(r.stats.invalid_replaced) / attempted;
  const char* const kSubCalls[] = {
      "coach.postprocess_us", "lm.topical_agreement_us", "lm.retrieve_relevant_us",
      "lm.rule_match_us",     "text.content_words_us",   "lm.serialize_pair_us",
      "lm.deserialize_pair_us"};
  std::string largest = kSubCalls[0];
  for (const char* name : kSubCalls) {
    if (m[name] > m[largest]) largest = name;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "largest per-pair revise sub-call: %s (%.1f us of %.1f us "
                "generate)",
                largest.c_str(), m[largest], m["coach.generate_us"]);
  out->notes.push_back(buf);
}

// ---------------------------------------------------------------------------
// Workloads.

/// The `run` flags: the values the self-check shrinks or sets to 0.
struct RunConfig {
  explicit RunConfig(const Args& args)
      : coachlm_binary(args.Str("coachlm")),
        rate(args.Double("rate")),
        single_pool(args.Size("single-pool")),
        bulk_bodies(args.Size("bulk-bodies")),
        late_limit_ms(args.Double("late-limit-ms")),
        ledger_limit(args.Double("ledger-limit")),
        replay_pairs(args.Size("replay-pairs")),
        check_pairs(args.Size("check-pairs")),
        probe_pairs(args.Size("probe-pairs")),
        trace_out(args.Str("trace-out")) {}

  std::string coachlm_binary;
  double rate;
  size_t single_pool;
  size_t bulk_bodies;
  double late_limit_ms;
  double ledger_limit;
  size_t replay_pairs;
  size_t check_pairs;
  size_t probe_pairs;
  std::string trace_out;
};

void SetPassLatencies(const std::vector<double>& pass_ms, size_t pairs,
                      Outcome* out) {
  std::vector<double> rates;
  for (double ms : pass_ms) rates.push_back(static_cast<double>(pairs) / (ms / 1e3));
  out->e2e["pairs_per_s"] = Median(rates);
  out->e2e["p50_ms"] = Median(pass_ms);
  out->e2e["p99_ms"] = Percentile(pass_ms, 99);
  std::string line = "latency samples: " + std::to_string(pass_ms.size()) +
                     " passes of " + std::to_string(pairs) + " pairs (ms:";
  for (double ms : pass_ms) line += " " + std::to_string(static_cast<int64_t>(ms));
  out->notes.push_back(line + ")");
}

/// Unattributed share of a pass: |wall - sum(phases)| / wall.
double Unattributed(int64_t wall_ns, int64_t phases_ns) {
  return wall_ns <= 0 ? 0.0
                      : std::fabs(static_cast<double>(wall_ns - phases_ns)) /
                            static_cast<double>(wall_ns);
}

void RunBatch(Env* env, const RunConfig& cfg, Tracer* tracer, Outcome* out) {
  const coachlm::ExecutionContext exec(env->threads);
  const std::string out_path = env->dir + "/revised.jsonl";
  {
    // Warm-up: thread pool, allocator and page cache, untimed.
    std::vector<InstructionPair> head;
    for (size_t i = 0; i < std::min<size_t>(2048, env->lines.size()); ++i) {
      head.push_back(PairFromLine(env->lines[i]));
    }
    (void)env->model->ReviseDataset(InstructionDataset(std::move(head)), {},
                                    nullptr, exec);
  }
  std::vector<double> pass_ms, decode, revise, encode;
  double worst_gap = 0;
  uint64_t digest = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(env->seconds * 1e9);
  for (uint64_t pass_id = 0; pass_ms.empty() || NowNs() < end; ++pass_id) {
    const BatchPass pass =
        RunBatchPass(*env, env->corpus_path, out_path, exec, tracer, pass_id);
    pass_ms.push_back(static_cast<double>(pass.wall_ns) / 1e6);
    decode.push_back(Seconds(pass.decode_ns));
    revise.push_back(Seconds(pass.revise_ns));
    encode.push_back(Seconds(pass.encode_ns));
    worst_gap = std::max(worst_gap,
                         Unattributed(pass.wall_ns, pass.decode_ns +
                                                        pass.revise_ns +
                                                        pass.encode_ns));
    out->attempted += pass.stats.total;
    if (pass.stats.quarantined > 0) {
      Fail(out, pass.stats.quarantined, "quarantined pairs in batch pass");
    }
    // Every pass must produce the same bytes.
    const uint64_t pass_digest = Fnv1a(ReadBytes(out_path));
    if (pass_id > 0 && pass_digest != digest) {
      Fail(out, pass.stats.total, "batch output differs between passes");
    }
    digest = pass_digest;
  }
  SetPassLatencies(pass_ms, env->lines.size(), out);
  out->e2e["peak_rss_mb"] = PeakRssMb(0);

  // Correctness: the output lines at a seeded sample of positions must
  // equal a serial replay through CoachLm::Revise with DeriveRng(seed, id).
  std::string output = ReadBytes(out_path);
  const std::vector<size_t> sample =
      SampleIndices(env->lines.size(), cfg.check_pairs, env->seed ^ 0xc4ecULL);
  if (env->corrupt) {
    // Flip one byte inside the first sampled output line.
    size_t offset = 0;
    for (size_t i = 0; i < sample.front(); ++i) offset = output.find('\n', offset) + 1;
    FlipByte(&output, offset + 3);
  }
  const std::vector<std::string> out_lines = SplitLines(output);
  std::string expected_digest_input, actual_digest_input;
  uint64_t bad = out_lines.size() == env->lines.size() ? 0 : 1;
  for (size_t i : sample) {
    const std::string want = ReviseLine(*env->model, PairFromLine(env->lines[i]));
    const std::string got = i < out_lines.size() ? out_lines[i] : "";
    expected_digest_input += want + "\n";
    actual_digest_input += got + "\n";
    if (want != got) ++bad;
  }
  out->attempted += sample.size();
  if (Fnv1a(expected_digest_input) != Fnv1a(actual_digest_input) || bad > 0) {
    Fail(out, std::max<uint64_t>(bad, 1),
         "batch output digest differs from the serial Revise replay");
  }
  if (worst_gap > cfg.ledger_limit) {
    out->valid = false;
    Fail(out, 1, "ledger: decode+revise+encode disagree with pass wall time by " +
                     std::to_string(worst_gap));
  }
  out->layers["data.decode_s"] = Median(decode);
  out->layers["coach.revise_dataset_s"] = Median(revise);
  out->layers["data.encode_s"] = Median(encode);
  out->layers["ledger.unattributed_ratio"] = worst_gap;
  fs::remove(out_path);
}

void SetRoundtripLayers(const std::vector<RoundtripPass>& passes, Outcome* out) {
  std::vector<double> jd, be, bd, je;
  for (const RoundtripPass& p : passes) {
    const double n = static_cast<double>(std::max<size_t>(1, p.pairs));
    jd.push_back(static_cast<double>(p.jsonl_decode_ns) / 1e3 / n);
    be.push_back(static_cast<double>(p.binary_encode_ns) / 1e3 / n);
    bd.push_back(static_cast<double>(p.binary_decode_ns) / 1e3 / n);
    je.push_back(static_cast<double>(p.jsonl_encode_ns) / 1e3 / n);
  }
  out->layers["data.jsonl_decode_us_per_pair"] = Median(jd);
  out->layers["data.binary_encode_us_per_pair"] = Median(be);
  out->layers["data.binary_decode_us_per_pair"] = Median(bd);
  out->layers["data.jsonl_encode_us_per_pair"] = Median(je);
  out->layers["data.bytes_read"] = static_cast<double>(passes.back().bytes_read);
  out->layers["data.bytes_written"] = static_cast<double>(passes.back().bytes_written);
}

void RunIngest(Env* env, const RunConfig& cfg, Tracer* tracer, Outcome* out) {
  const std::string shard_dir = env->dir + "/shards";
  const std::string out_path = env->dir + "/roundtrip.jsonl";
  const std::string input = ReadBytes(env->corpus_path);
  Tracer untraced(false);
  (void)RunRoundtripPass(env->corpus_path, shard_dir, out_path, &untraced, 0);
  std::vector<RoundtripPass> passes;
  std::vector<double> pass_ms;
  double worst_gap = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(env->seconds * 1e9);
  for (uint64_t pass_id = 0; passes.empty() || NowNs() < end; ++pass_id) {
    RoundtripPass pass =
        RunRoundtripPass(env->corpus_path, shard_dir, out_path, tracer, pass_id);
    pass_ms.push_back(static_cast<double>(pass.wall_ns) / 1e6);
    worst_gap = std::max(
        worst_gap, Unattributed(pass.wall_ns, pass.jsonl_decode_ns +
                                                  pass.binary_encode_ns +
                                                  pass.binary_decode_ns +
                                                  pass.jsonl_encode_ns));
    out->attempted += pass.pairs;
    // Correctness: the round trip is lossless, byte for byte.
    std::string output = ReadBytes(out_path);
    if (env->corrupt && pass_id == 0) FlipByte(&output, output.size() / 2);
    const uint64_t bad = CountLineMismatches(input, output);
    if (bad > 0) Fail(out, bad, "ingest round trip is not byte-identical");
    passes.push_back(pass);
  }
  SetPassLatencies(pass_ms, env->lines.size(), out);
  out->e2e["peak_rss_mb"] = PeakRssMb(0);
  SetRoundtripLayers(passes, out);
  std::vector<double> decode_s, encode_s;
  for (const RoundtripPass& p : passes) {
    decode_s.push_back(Seconds(p.jsonl_decode_ns + p.binary_decode_ns));
    encode_s.push_back(Seconds(p.binary_encode_ns + p.jsonl_encode_ns));
  }
  out->layers["data.decode_s"] = Median(decode_s);
  out->layers["data.encode_s"] = Median(encode_s);
  out->layers["ledger.unattributed_ratio"] = worst_gap;
  if (worst_gap > cfg.ledger_limit) {
    out->valid = false;
    Fail(out, 1, "ledger: round-trip phases disagree with pass wall time by " +
                     std::to_string(worst_gap));
  }
  fs::remove_all(shard_dir);
  fs::remove(out_path);
}

/// Serve workloads: boot the daemon (kBoots times; the last stays up),
/// drive it open- or closed-loop, and check every response body.
void RunServe(Env* env, const RunConfig& cfg, bool bulk, Tracer* tracer,
              Outcome* out, Daemon* daemon, RequestPool* pool_out) {
  const size_t per_body = bulk ? kBulkPairs : 1;
  const size_t bodies = bulk ? cfg.bulk_bodies : cfg.single_pool;
  *pool_out = BuildPool(*env, bodies, per_body, env->seed ^ 0x9001ULL);
  const RequestPool& pool = *pool_out;
  std::vector<double> boot_s;
  const std::string log = env->dir + "/daemon.log";
  for (int b = 0; b < kBoots; ++b) {
    *daemon = BootDaemon(cfg.coachlm_binary, env->checkpoint_path, log);
    boot_s.push_back(daemon->boot_s);
    if (b + 1 < kBoots) StopDaemon(daemon);
  }
  out->layers["serve.boot_s"] = Median(boot_s);
  // Warm-up, untimed: every worker touches the model and the allocator.
  for (size_t i = 0; i < std::min<size_t>(pool.requests.size(), bulk ? 8 : 64); ++i) {
    (void)Fetch(daemon->port, "POST", "/v1/revise", pool.bodies[i]);
  }

  std::atomic<bool> corrupt(env->corrupt);
  const int64_t window_start = NowNs();
  std::vector<RequestRecord> records =
      bulk ? RunClosedLoop(daemon->port, pool, kBulkClients, env->seconds,
                           env->seed, &corrupt)
           : RunOpenLoop(daemon->port, pool, cfg.rate, env->seconds, env->seed,
                         &corrupt);
  const int64_t window_end = NowNs();
  out->e2e["peak_rss_mb"] = PeakRssMb(daemon->pid);

  std::vector<double> latency_ms, late_ms;
  uint64_t shed = 0, transport = 0, non2xx = 0, mismatch = 0, pairs_done = 0;
  int64_t last_done = window_start;
  {
    const int window =
        tracer->Add("workload.window", 0, window_start, window_end, -1);
    for (size_t i = 0; i < records.size(); ++i) {
      const RequestRecord& r = records[i];
      late_ms.push_back(static_cast<double>(r.start_ns - r.due_ns) / 1e6);
      if (r.done_ns == 0 || !r.transport_ok) {
        ++transport;
        continue;
      }
      tracer->Add("serve.request", i, r.due_ns, r.done_ns, window);
      last_done = std::max(last_done, r.done_ns);
      if (r.status == 429) ++shed;
      if (r.status < 200 || r.status >= 300) {
        ++non2xx;
      } else if (!r.match) {
        ++mismatch;
      } else {
        latency_ms.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
        pairs_done += pool.pair_counts[r.body];
      }
    }
  }
  out->attempted = records.size();
  if (transport > 0) Fail(out, transport, "transport errors");
  if (non2xx > 0) Fail(out, non2xx, "non-2xx responses");
  if (mismatch > 0) {
    Fail(out, mismatch, "response bodies differ from in-process Revise");
  }
  // A failed request also misses any latency limit: charge it as +inf.
  std::vector<double> charged;
  for (const RequestRecord& r : records) {
    charged.push_back(r.done_ns != 0 && r.transport_ok && r.status >= 200 &&
                              r.status < 300 && r.match
                          ? static_cast<double>(r.done_ns - r.due_ns) / 1e6
                          : 1e12);
  }
  const double elapsed_s = Seconds(std::max(window_end, last_done) - window_start);
  out->e2e["pairs_per_s"] = static_cast<double>(pairs_done) / elapsed_s;
  out->e2e["p50_ms"] = Median(charged);
  // Open loop: p99 of each one-second slice of due times, then the median
  // slice, so a host stall of a few seconds moves one slice, not the figure.
  // The closed loop has too few requests per second to slice.
  std::vector<double> slice_p99;
  if (!bulk) {
    std::map<int64_t, std::vector<double>> slices;
    for (size_t i = 0; i < records.size(); ++i) {
      slices[(records[i].due_ns - records.front().due_ns) / 1000000000LL].push_back(
          charged[i]);
    }
    for (const auto& slice : slices) slice_p99.push_back(Percentile(slice.second, 99));
  }
  out->e2e["p99_ms"] = bulk ? Percentile(charged, 99) : Median(slice_p99);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "latency samples: %zu requests (%s, %zu pair(s) each), "
                "%.1f requests/s; whole-window p99 %.3f ms, %zu slice(s)",
                records.size(), bulk ? "closed loop" : "open loop", per_body,
                static_cast<double>(records.size()) / elapsed_s,
                Percentile(charged, 99), slice_p99.size());
  out->notes.push_back(buf);
  const double late_p99 = bulk ? 0.0 : Percentile(late_ms, 99);
  out->layers["serve.generator_late_p99_ms"] = late_p99;
  out->layers["serve.shed_ratio"] =
      static_cast<double>(shed) / std::max<double>(1, static_cast<double>(records.size()));
  out->client_p50_us = Median(latency_ms) * 1e3;
  if (!bulk && late_p99 > cfg.late_limit_ms) {
    // Open-loop honesty: a generator that fell behind did not offer the
    // stated load, so the run is invalid rather than a latency figure.
    out->valid = false;
    Fail(out, 1, "open-loop generator fell behind: late p99 " +
                     std::to_string(late_p99) + " ms > " +
                     std::to_string(cfg.late_limit_ms) + " ms");
  }
}

// ---------------------------------------------------------------------------
// Traced-run extras: probes that give every workload every layer metric.

/// Writes \p lines as a JSONL corpus and runs one batch pass over it.
void BatchProbe(const Env& env, const std::vector<std::string>& lines,
                Tracer* tracer, Outcome* out) {
  const std::string in = env.dir + "/probe.jsonl";
  const std::string out_path = env.dir + "/probe_revised.jsonl";
  {
    std::ofstream file(in, std::ios::binary);
    for (const std::string& line : lines) file << line << '\n';
  }
  const coachlm::ExecutionContext exec(env.threads);
  const BatchPass pass = RunBatchPass(env, in, out_path, exec, tracer, 0);
  // ingest-roundtrip keeps the decode/encode phases of its own passes.
  out->layers.emplace("data.decode_s", Seconds(pass.decode_ns));
  out->layers.emplace("coach.revise_dataset_s", Seconds(pass.revise_ns));
  out->layers.emplace("data.encode_s", Seconds(pass.encode_ns));
  fs::remove(in);
  fs::remove(out_path);
}

void RunTracedExtras(Env* env, const RunConfig& cfg, Tracer* tracer,
                     const RequestPool* pool, Daemon* daemon, Outcome* out) {
  const bool serve_workload = pool != nullptr;
  const bool bulk = env->workload == "serve-bulk";
  // Pair sample: the workload's own pairs (the request pool for serve).
  std::vector<std::string> sample_lines;
  if (serve_workload) {
    std::vector<std::string> pool_lines;
    for (const std::string& body : pool->bodies) {
      for (std::string& line : SplitLines(body)) pool_lines.push_back(std::move(line));
    }
    for (size_t i : SampleIndices(pool_lines.size(), cfg.replay_pairs, env->seed ^ 0x7ac3ULL)) {
      sample_lines.push_back(pool_lines[i]);
    }
  } else {
    for (size_t i : SampleIndices(env->lines.size(), cfg.replay_pairs, env->seed ^ 0x7ac3ULL)) {
      sample_lines.push_back(env->lines[i]);
    }
  }

  // In-process serve context on the same checkpoint.
  coachlm::serve::ServeConfig serve_config;
  serve_config.checkpoint = env->checkpoint_path;
  serve_config.coach = ModelConfig();
  serve_config.parse_limits = coachlm::json::ParseLimits::Default();
  coachlm::serve::ModelHost host(serve_config.checkpoint, serve_config.coach);
  Must(host.Load(), "in-process model host");
  coachlm::serve::ServeContext context;
  context.config = &serve_config;
  context.models = &host;
  context.clock = coachlm::Clock::System();

  // Untraced then traced replay of the same sample: the difference is the
  // cost of span bookkeeping.
  Tracer off(false);
  const ReplayTotals untraced = ReplayPairs(*env, sample_lines, &context, &off);
  const ReplayTotals replay = ReplayPairs(*env, sample_lines, &context, tracer);
  LayerMetricsFromReplay(replay, out);
  out->layers["trace.overhead_ratio"] =
      static_cast<double>(replay.wall_ns) / static_cast<double>(untraced.wall_ns) - 1.0;
  if (replay.handler_mismatches > 0) {
    Fail(out, replay.handler_mismatches,
         "in-process HandleRequest differs from Revise");
  }

  // serve.* on the workload's request shape.
  std::vector<double> handler_us, parse_us, serialize_us, parts_us;
  if (bulk) {
    std::vector<size_t> bodies;
    for (size_t b = 0; b < pool->bodies.size(); ++b) bodies.push_back(b);
    const HandlerReplay h = ReplayRequests(*env, *pool, bodies, &context, tracer);
    handler_us = h.handler_us;
    parse_us = h.parse_us;
    serialize_us = h.serialize_us;
    parts_us = h.parts_us;
    if (h.mismatches > 0) Fail(out, h.mismatches, "in-process bulk handler mismatch");
  } else {
    handler_us = replay.us.at("serve.handler");
    parse_us = replay.us.at("serve.http_parse");
    serialize_us = replay.us.at("serve.response_serialize");
    for (size_t i = 0; i < replay.pairs; ++i) {
      parts_us.push_back(replay.us.at("json.parse_line")[i] +
                         replay.us.at("data.from_json")[i] +
                         replay.us.at("coach.revise")[i] +
                         replay.us.at("json.dump_pair")[i]);
    }
  }
  out->layers["serve.http_parse_us"] = Mean(parse_us);
  out->layers["serve.handler_us"] = Mean(handler_us);
  out->layers["serve.response_serialize_us"] = Mean(serialize_us);
  out->layers["serve.handler_unattributed_ratio"] =
      Unattributed(static_cast<int64_t>(Mean(handler_us) * 1e3),
                   static_cast<int64_t>(Mean(parts_us) * 1e3));

  if (serve_workload) {
    out->layers["serve.wire_overhead_us"] =
        out->client_p50_us - Median(handler_us);
  } else {
    // Probe the daemon once, closed loop, with this workload's pairs.
    RequestPool probe = BuildPool(*env, 256, 1, env->seed ^ 0x9001ULL);
    *daemon = BootDaemon(cfg.coachlm_binary, env->checkpoint_path,
                         env->dir + "/daemon.log");
    out->layers["serve.boot_s"] = daemon->boot_s;
    std::vector<double> client_us;
    for (size_t i = 0; i < probe.requests.size(); ++i) {
      const int64_t start = NowNs();
      const Exchange ex = Fetch(daemon->port, "POST", "/v1/revise", probe.bodies[i]);
      client_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      if (!ex.transport_ok || ex.status != 200 || ex.body != probe.expected[i]) {
        Fail(out, 1, "serve probe response differs from in-process Revise");
      }
    }
    StopDaemon(daemon);
    out->layers["serve.wire_overhead_us"] = Median(client_us) - Median(handler_us);
    out->layers["serve.shed_ratio"] = 0;
    out->layers["serve.generator_late_p99_ms"] = 0;
  }

  // Batch phases on workloads that have none of their own.
  if (env->workload != "batch-52k") {
    std::vector<std::string> probe_lines;
    for (size_t i : SampleIndices(env->lines.size(), cfg.probe_pairs, env->seed ^ 0xb47cULL)) {
      probe_lines.push_back(env->lines[i]);
    }
    BatchProbe(*env, probe_lines, tracer, out);
    if (env->workload != "ingest-roundtrip") {
      out->layers["ledger.unattributed_ratio"] =
          out->layers["serve.handler_unattributed_ratio"];
    }
  }
  // Codec costs on workloads that do not run the round trip themselves.
  if (env->workload != "ingest-roundtrip") {
    const RoundtripPass pass = RunRoundtripPass(
        env->corpus_path, env->dir + "/codec", env->dir + "/codec.jsonl", tracer, 0);
    SetRoundtripLayers({pass}, out);
    fs::remove_all(env->dir + "/codec");
    fs::remove(env->dir + "/codec.jsonl");
  }
  out->layers["coach.load_checkpoint_ms"] = env->load_checkpoint_ms;
  out->layers["trace.spans"] = static_cast<double>(tracer->size());
  for (const auto& [name, value] : tracer->SelfMsByLayer()) out->layers[name] = value;
  out->layers["trace.pairs_per_s"] = out->e2e["pairs_per_s"];
  out->layers["trace.p50_ms"] = out->e2e["p50_ms"];
  out->layers["trace.p99_ms"] = out->e2e["p99_ms"];
  tracer->Write(cfg.trace_out);
}

void PrintOutcome(const Outcome& out) {
  for (const std::string& note : out.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("{\"valid\":%s,\"attempted\":%llu,\"failed\":%llu,\"e2e\":%s,"
              "\"layers\":%s}\n",
              out.valid ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              DumpMetrics(out.e2e).c_str(), DumpMetrics(out.layers).c_str());
  std::fflush(stdout);
}

/// The `# settings:` note: every fixed setting and every flag of this run.
std::string SettingsNote(const Env& env, const RunConfig& cfg) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "settings: nproc %zu, corpus %zu pairs, serve-workers %d, "
                "queue-depth %d, boots %d, rate %.0f/s, single pool %zu, "
                "bulk %d clients x %zu pairs from %zu bodies, shards %d, "
                "late limit %.3g ms, ledger limit %.3g, replay %zu, check %zu, "
                "probe %zu pairs, setup on %zu thread(s)",
                env.threads, env.lines.size(), kServeWorkers, kQueueDepth, kBoots,
                cfg.rate, cfg.single_pool, kBulkClients, kBulkPairs, cfg.bulk_bodies,
                kShards, cfg.late_limit_ms, cfg.ledger_limit, cfg.replay_pairs,
                cfg.check_pairs, cfg.probe_pairs, kSetupThreads);
  return buf;
}

int CmdRun(const Args& args) {
  Env env;
  env.workload = args.Str("workload");
  env.dir = args.Str("dir");
  env.seed = static_cast<uint64_t>(args.Int("seed"));
  env.seconds = args.Double("seconds");
  env.trace = args.Int("trace") != 0;
  env.corrupt = args.Int("corrupt") != 0;
  env.threads = HostThreads();
  env.corpus_path = env.dir + "/corpus.jsonl";
  env.checkpoint_path = env.dir + "/coach.json";
  const RunConfig cfg(args);

  env.lines = SplitLines(ReadBytes(env.corpus_path));
  if (env.lines.empty()) Die("empty corpus");
  const bool serve = env.workload == "serve-single" || env.workload == "serve-bulk";
  const bool needs_model = env.workload != "ingest-roundtrip" || env.trace;
  if (needs_model) LoadModel(&env);

  Tracer tracer(env.trace);
  Outcome out;
  out.notes.push_back(SettingsNote(env, cfg));
  Daemon daemon;
  RequestPool pool;
  if (env.workload == "batch-52k") {
    RunBatch(&env, cfg, &tracer, &out);
  } else if (env.workload == "ingest-roundtrip") {
    RunIngest(&env, cfg, &tracer, &out);
  } else if (serve) {
    RunServe(&env, cfg, env.workload == "serve-bulk", &tracer, &out, &daemon, &pool);
    StopDaemon(&daemon);
  } else {
    Die("unknown workload " + env.workload);
  }
  if (env.trace) {
    RunTracedExtras(&env, cfg, &tracer, serve ? &pool : nullptr, &daemon, &out);
  }
  PrintOutcome(out);
  return 0;
}

/// Generate -> expert study -> CoachTrainer::Train -> checkpoint write,
/// `reps` times; the outputs of every repetition must be identical.
int CmdSetup(const Args& args) {
  const std::string dir = args.Str("dir");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const size_t size = args.Size("size");
  const size_t study = args.Size("study");
  const size_t reps = args.Size("reps");
  const coachlm::ExecutionContext exec(kSetupThreads);
  std::vector<double> total_s, compile_ms;
  std::map<std::string, std::vector<double>> phases;
  uint64_t corpus_digest = 0, checkpoint_digest = 0;
  bool identical = true;
  for (size_t rep = 0; rep < reps; ++rep) {
    const std::string corpus = dir + "/corpus.jsonl";
    const std::string checkpoint = dir + "/coach.json";
    const int64_t start = NowNs();
    coachlm::synth::CorpusConfig corpus_config;
    corpus_config.size = size;
    corpus_config.seed = seed;
    const coachlm::synth::SynthCorpusGenerator generator(corpus_config);
    const coachlm::synth::SynthCorpus generated = generator.Generate(exec);
    phases["generate_s"].push_back(Seconds(NowNs() - start));
    int64_t mark = NowNs();
    coachlm::CorpusWriteOptions options;
    options.format = coachlm::CorpusFormat::kJsonl;
    Must(coachlm::SaveCorpus(corpus, generated.dataset, options), "save corpus");
    phases["save_corpus_s"].push_back(Seconds(NowNs() - mark));
    mark = NowNs();
    coachlm::expert::RevisionStudyConfig study_config;
    study_config.sample_size = study;
    study_config.seed = seed * 31 + 17;
    const coachlm::expert::RevisionStudyResult result = coachlm::expert::RunRevisionStudy(
        generated.dataset, generator.engine(), study_config, {}, exec);
    phases["study_s"].push_back(Seconds(NowNs() - mark));
    mark = NowNs();
    const coachlm::coach::CoachLm model =
        coachlm::coach::CoachTrainer(ModelConfig()).Train(result.revisions);
    phases["train_s"].push_back(Seconds(NowNs() - mark));
    mark = NowNs();
    Must(model.SaveCheckpoint(checkpoint), "save checkpoint");
    phases["checkpoint_s"].push_back(Seconds(NowNs() - mark));
    total_s.push_back(Seconds(NowNs() - start));
    const int64_t compile_start = NowNs();
    const coachlm::lm::CompiledRuleSet compiled(model.rules(),
                                                model.config().min_rule_support);
    compile_ms.push_back(static_cast<double>(NowNs() - compile_start) / 1e6);
    const uint64_t c = Fnv1a(ReadBytes(corpus));
    const uint64_t k = Fnv1a(ReadBytes(checkpoint));
    if (rep > 0 && (c != corpus_digest || k != checkpoint_digest)) identical = false;
    corpus_digest = c;
    checkpoint_digest = k;
  }
  std::printf("{\"identical\":%s,\"setup_s\":[", identical ? "true" : "false");
  for (size_t i = 0; i < total_s.size(); ++i) {
    std::printf("%s%.9g", i > 0 ? "," : "", total_s[i]);
  }
  std::printf("],\"lm.rule_compile_ms\":%.9g,\"phases\":{", Median(compile_ms));
  const char* sep = "";
  for (const auto& [name, values] : phases) {
    std::printf("%s\"%s\":%.9g", sep, name.c_str(), Median(values));
    sep = ",";
  }
  std::printf("}}\n");
  return 0;
}

/// Closed-loop capacity of one-pair /v1/revise requests at 1..nproc
/// clients: used to pick the serve-single arrival rate.
int CmdCapacity(const Args& args) {
  constexpr double kSeconds = 5;
  Env env;
  env.dir = args.Str("dir");
  env.seed = static_cast<uint64_t>(args.Int("seed"));
  env.threads = HostThreads();
  env.corpus_path = env.dir + "/corpus.jsonl";
  env.checkpoint_path = env.dir + "/coach.json";
  env.lines = SplitLines(ReadBytes(env.corpus_path));
  LoadModel(&env);
  const RequestPool pool = BuildPool(env, 4096, 1, env.seed);
  Daemon daemon = BootDaemon(args.Str("coachlm"), env.checkpoint_path,
                             env.dir + "/daemon.log");
  std::atomic<bool> no_corrupt(false);
  for (int clients = 1; clients <= static_cast<int>(env.threads); ++clients) {
    const std::vector<RequestRecord> records =
        RunClosedLoop(daemon.port, pool, clients, kSeconds, env.seed, &no_corrupt);
    size_t ok = 0;
    for (const RequestRecord& r : records) ok += r.match ? 1 : 0;
    std::printf("clients=%d requests/s=%.1f ok=%zu/%zu\n", clients,
                static_cast<double>(ok) / kSeconds, ok, records.size());
  }
  StopDaemon(&daemon);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench setup|run|capacity --key value ...\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  const std::string command = argv[1];
  const perfbench::Args args(argc, argv);
  if (command == "setup") return perfbench::CmdSetup(args);
  if (command == "run") return perfbench::CmdRun(args);
  if (command == "capacity") return perfbench::CmdCapacity(args);
  std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
  return 2;
}
