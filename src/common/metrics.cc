#include "common/metrics.h"

#include <algorithm>
#include <mutex>
#include <set>

#include "common/annotations.h"
#include "common/logging.h"

namespace coachlm {
namespace {

/// Character-length buckets for revised responses: powers of two up to 8k
/// chars, matching the corpus generator's response-size envelope. The last
/// catalog bucket is followed by an implicit overflow bucket.
constexpr int64_t kCharBuckets[] = {64, 128, 256, 512, 1024, 2048, 4096,
                                    8192};

/// Rating buckets on the 0-5 judge scale, stored as rating x 100 so the
/// histogram sum stays an order-independent integer.
constexpr int64_t kRatingBuckets[] = {50,  100, 150, 200, 250,
                                      300, 350, 400, 450, 500};

/// Request-latency buckets for the serve daemon (microseconds): sub-ms
/// admin/health responses up through multi-second revise bursts under
/// fault-plan latency. The last catalog bucket is followed by the implicit
/// overflow bucket.
constexpr int64_t kLatencyMicroBuckets[] = {
    100,    250,    500,     1000,    2500,    5000,   10000,
    25000,  50000,  100000,  250000,  500000,  1000000, 2500000};

}  // namespace

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "counter";
}

const std::vector<MetricDef>& MetricCatalog() {
  // Sorted by name; registry maps and every serialized dump inherit this
  // order, which is what makes merge order invisible in the output.
  static const std::vector<MetricDef> kCatalog = {
      {"checkpoint.commits", MetricType::kCounter, "commits", "checkpoint",
       "Journal chunks committed (payload append + manifest rename)"},
      {"checkpoint.items_restored", MetricType::kCounter, "items",
       "checkpoint",
       "Items restored from a resumed journal instead of recomputed"},
      {"checkpoint.payload_bytes", MetricType::kCounter, "bytes",
       "checkpoint", "Serialized payload bytes appended to stage journals"},
      {"generate.items_dropped", MetricType::kCounter, "items", "generate",
       "Pairs dropped from the corpus after permanent collection failure"},
      {"generate.items_out", MetricType::kCounter, "items", "generate",
       "Pairs synthesized into the corpus"},
      {"io.bytes_read", MetricType::kCounter, "bytes", "io",
       "Corpus payload bytes read (mapped or buffered) across all backends"},
      {"io.bytes_written", MetricType::kCounter, "bytes", "io",
       "Corpus payload bytes written across all backends"},
      {"io.pool_dedup_hits", MetricType::kCounter, "strings", "io",
       "Strings deduplicated away by binary-block string pools"},
      {"io.records_read", MetricType::kCounter, "records", "io",
       "Instruction pairs decoded from corpus files"},
      {"io.records_written", MetricType::kCounter, "records", "io",
       "Instruction pairs encoded into corpus files"},
      {"io.shards_opened", MetricType::kCounter, "shards", "io",
       "Shard files opened through manifest readers"},
      {"judge.items_judged", MetricType::kCounter, "items", "judge",
       "Test-set items with a pairwise verdict"},
      {"judge.items_unjudged", MetricType::kCounter, "items", "judge",
       "Test-set items whose judgment failed permanently (quarantined)"},
      {"platform.batches", MetricType::kCounter, "batches", "platform",
       "Data-management batches cleaned end to end"},
      {"platform.cases_collected", MetricType::kCounter, "items", "platform",
       "Raw user cases collected from the serving stack"},
      {"platform.cases_dropped", MetricType::kCounter, "items", "platform",
       "Cases lost to unparseable logs or permanent collection failure"},
      {"platform.cases_quarantined", MetricType::kCounter, "items",
       "platform",
       "Cases that exhausted retries somewhere in the batch pipeline"},
      {"rate.items_analyzed", MetricType::kCounter, "items", "rate",
       "Pairs analyzed for the per-dimension quality report"},
      {"rate.items_in", MetricType::kCounter, "items", "rate",
       "Pairs scored by the ChatGPT-style 0-5 accuracy rater"},
      {"rate.rating_x100", MetricType::kHistogram, "rating_x100", "rate",
       "Distribution of 0-5 accuracy ratings, scaled by 100", kRatingBuckets,
       std::size(kRatingBuckets)},
      {"revise.items_changed", MetricType::kCounter, "items", "revise",
       "Pairs whose text the coach actually changed"},
      {"revise.items_in", MetricType::kCounter, "items", "revise",
       "Pairs entering the CoachLM revision pass"},
      {"revise.items_invalid_replaced", MetricType::kCounter, "items",
       "revise",
       "Invalid model outputs replaced with the original pair"},
      {"revise.items_leakage_skipped", MetricType::kCounter, "items",
       "revise",
       "Pairs adopted unchanged by the training-data leakage guard"},
      {"revise.items_quarantined", MetricType::kCounter, "items", "revise",
       "Pairs whose revision failed permanently (original kept)"},
      {"revise.items_recovered", MetricType::kCounter, "items", "revise",
       "Pairs that needed more than one attempt but recovered via retry"},
      {"revise.items_resumed", MetricType::kCounter, "items", "revise",
       "Pairs restored from a checkpoint instead of recomputed"},
      {"revise.response_chars", MetricType::kHistogram, "chars", "revise",
       "Distribution of revised response lengths in characters",
       kCharBuckets, std::size(kCharBuckets)},
      {"rules.automaton_states", MetricType::kGauge, "states", "rules",
       "States in the compiled rule automaton's dense DFA"},
      {"rules.compile_micros", MetricType::kCounter, "micros", "rules",
       "Time spent compiling rule stores into matcher tables"},
      {"rules.compiled", MetricType::kCounter, "compiles", "rules",
       "Rule-store compilations (one per CoachLm built with the compiled "
       "engine)"},
      {"rules.matches_fired", MetricType::kCounter, "matches", "rules",
       "Compiled rules that fired (actually edited text) during revision"},
      {"rules.patterns", MetricType::kGauge, "patterns", "rules",
       "Searchable patterns in the compiled rule automaton"},
      {"rules.prefilter_rejected", MetricType::kCounter, "checks", "rules",
       "Rule probes rejected by the O(1) fingerprint prefilter before any "
       "string work"},
      {"runtime.attempts_total", MetricType::kCounter, "attempts", "runtime",
       "Attempts consumed across all fault-tolerant Run() envelopes"},
      {"runtime.quarantined.collect", MetricType::kCounter, "items",
       "runtime", "Records quarantined at the collect site"},
      {"runtime.quarantined.io", MetricType::kCounter, "items", "runtime",
       "Records quarantined at the io site (journal/save failures)"},
      {"runtime.quarantined.judge", MetricType::kCounter, "items", "runtime",
       "Records quarantined at the judge site"},
      {"runtime.quarantined.parse", MetricType::kCounter, "items", "runtime",
       "Records quarantined at the parse site"},
      {"runtime.quarantined.revise", MetricType::kCounter, "items", "runtime",
       "Records quarantined at the revise site"},
      {"runtime.quarantined.serve.accept", MetricType::kCounter, "items",
       "runtime", "Connections quarantined at the serve.accept site"},
      {"runtime.quarantined.serve.parse", MetricType::kCounter, "items",
       "runtime", "Requests quarantined at the serve.parse site"},
      {"runtime.quarantined.serve.revise", MetricType::kCounter, "items",
       "runtime", "Served records quarantined at the serve.revise site"},
      {"runtime.quarantined.tune", MetricType::kCounter, "items", "runtime",
       "Records quarantined at the tune site"},
      {"runtime.records_quarantined", MetricType::kCounter, "items",
       "runtime",
       "Records routed to the quarantine log after permanent failure"},
      {"runtime.records_recovered", MetricType::kCounter, "items", "runtime",
       "Records that recovered via retry after transient failures"},
      {"runtime.retry_backoff_micros", MetricType::kCounter, "micros",
       "runtime",
       "Deterministic backoff scheduled between retry attempts"},
      {"serve.chaos.eintr_injected", MetricType::kCounter, "ops", "serve",
       "Socket syscalls interrupted with an injected EINTR (chaos.eintr)"},
      {"serve.chaos.reads_disturbed", MetricType::kCounter, "ops", "serve",
       "Socket reads dripped one byte at a time (chaos.read slowloris)"},
      {"serve.chaos.rst_closes", MetricType::kCounter, "connections",
       "serve",
       "Connections torn down with a hard TCP RST instead of a clean close "
       "(chaos.rst)"},
      {"serve.chaos.stalls_injected", MetricType::kCounter, "ops", "serve",
       "Socket operations delayed by an injected peer stall (chaos.stall)"},
      {"serve.chaos.writes_torn", MetricType::kCounter, "ops", "serve",
       "Socket writes truncated to force partial-write handling "
       "(chaos.write)"},
      {"serve.client.recovered", MetricType::kCounter, "requests", "serve",
       "Client requests that succeeded only after at least one retry"},
      {"serve.client.retries", MetricType::kCounter, "attempts", "serve",
       "Retry attempts the resilient client scheduled beyond the first"},
      {"serve.connections_accepted", MetricType::kCounter, "connections",
       "serve", "Client connections accepted by the serve listener"},
      {"serve.latency_admin_micros", MetricType::kHistogram, "micros",
       "serve", "Request latency of the /admin/reload endpoint",
       kLatencyMicroBuckets, std::size(kLatencyMicroBuckets)},
      {"serve.latency_health_micros", MetricType::kHistogram, "micros",
       "serve",
       "Request latency of the /healthz, /v1/model and /metrics endpoints",
       kLatencyMicroBuckets, std::size(kLatencyMicroBuckets)},
      {"serve.latency_revise_micros", MetricType::kHistogram, "micros",
       "serve", "Request latency of the /v1/revise endpoint",
       kLatencyMicroBuckets, std::size(kLatencyMicroBuckets)},
      {"serve.queue_depth_peak", MetricType::kGauge, "requests", "serve",
       "High-water mark of the admission queue since startup"},
      {"serve.records_in", MetricType::kCounter, "records", "serve",
       "Instruction pairs received in /v1/revise request bodies"},
      {"serve.records_quarantined", MetricType::kCounter, "records", "serve",
       "Served records that failed revision permanently (original returned)"},
      {"serve.records_revised", MetricType::kCounter, "records", "serve",
       "Instruction pairs revised and returned by /v1/revise"},
      {"serve.reloads_ok", MetricType::kCounter, "reloads", "serve",
       "Hot model reloads that validated and swapped the coach artifact"},
      {"serve.reloads_rejected", MetricType::kCounter, "reloads", "serve",
       "Hot model reloads rejected (torn/invalid artifact; old model kept)"},
      {"serve.requests_client_error", MetricType::kCounter, "requests",
       "serve", "Requests answered with a typed 4xx (hostile body, bad "
       "endpoint, oversized payload)"},
      {"serve.requests_deadline_exceeded", MetricType::kCounter, "requests",
       "serve", "Requests cut off by a deadline: the per-request budget "
       "(504) or the socket read timeout (408)"},
      {"serve.requests_ok", MetricType::kCounter, "requests", "serve",
       "Requests answered with 2xx"},
      {"serve.requests_server_error", MetricType::kCounter, "requests",
       "serve", "Requests answered with a 5xx other than 504 (injected "
       "accept/parse faults, internal errors)"},
      {"serve.requests_shed", MetricType::kCounter, "requests", "serve",
       "Connections shed with 429 + Retry-After because the admission "
       "queue was full"},
      {"serve.supervisor.circuit_opened", MetricType::kCounter, "events",
       "serve",
       "Restart circuit-breaker trips (too many worker crashes in the "
       "window; the supervisor exits)"},
      {"serve.supervisor.restart_backoff_micros", MetricType::kCounter,
       "micros", "serve",
       "Deterministic backoff scheduled before worker respawns"},
      {"serve.supervisor.workers_crashed", MetricType::kCounter, "workers",
       "serve",
       "Worker processes that died (signal or nonzero exit) outside drain"},
      {"serve.supervisor.workers_respawned", MetricType::kCounter, "workers",
       "serve", "Worker processes respawned after a crash"},
      {"serve.supervisor.workers_spawned", MetricType::kCounter, "workers",
       "serve", "Worker processes forked by the supervisor (initial fleet "
       "plus respawns)"},
      {"study.items_excluded", MetricType::kCounter, "items", "study",
       "Sampled pairs screened out by the Table III exclusion filter"},
      {"study.items_revised", MetricType::kCounter, "items", "study",
       "Sampled pairs the simulated experts revised"},
      {"study.items_sampled", MetricType::kCounter, "items", "study",
       "Pairs sampled into the expert revision study"},
      {"train.alpha_x1000", MetricType::kGauge, "ratio_x1000", "train",
       "Revision-distance selection ratio alpha, scaled by 1000"},
      {"train.coach_samples", MetricType::kCounter, "items", "train",
       "Coach-tuning samples in the alpha-selected training set C_alpha"},
      {"train.revision_pairs", MetricType::kCounter, "items", "train",
       "Expert revision records offered to coach training"},
      {"tune.items_rated", MetricType::kCounter, "items", "tune",
       "Pairs rated while measuring a training set's alignment profile"},
      {"tune.models_tuned", MetricType::kCounter, "models", "tune",
       "Instruction-tuned models materialized from training sets"},
  };
  return kCatalog;
}

MetricHistogram::MetricHistogram(const int64_t* bounds, size_t num_bounds)
    : bounds_(bounds, bounds + num_bounds), counts_(num_bounds + 1) {}

void MetricHistogram::Observe(int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Status MetricHistogram::MergeFrom(const std::vector<int64_t>& counts,
                                  int64_t sum) {
  if (counts.size() != counts_.size()) {
    return Status::InvalidArgument(
        "histogram merge: " + std::to_string(counts.size()) +
        " bucket counts, want " + std::to_string(counts_.size()));
  }
  uint64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < 0) {
      return Status::InvalidArgument("histogram merge: negative bucket count");
    }
    counts_[i].fetch_add(static_cast<uint64_t>(counts[i]),
                         std::memory_order_relaxed);
    total += static_cast<uint64_t>(counts[i]);
  }
  count_.fetch_add(total, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<uint64_t> MetricHistogram::counts() const {
  std::vector<uint64_t> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void MetricHistogram::Reset() {
  for (std::atomic<uint64_t>& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry() {
  for (const MetricDef& def : MetricCatalog()) {
    switch (def.type) {
      case MetricType::kCounter:
        counters_.emplace(std::piecewise_construct,
                          std::forward_as_tuple(def.name),
                          std::forward_as_tuple());
        break;
      case MetricType::kGauge:
        gauges_.emplace(std::piecewise_construct,
                        std::forward_as_tuple(def.name),
                        std::forward_as_tuple());
        break;
      case MetricType::kHistogram:
        histograms_.emplace(
            std::piecewise_construct, std::forward_as_tuple(def.name),
            std::forward_as_tuple(def.buckets, def.num_buckets));
        break;
    }
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

/// A lookup miss is a deliberate no-op in release builds (instrumentation
/// must never take a run down), but in debug builds it is almost always a
/// typo'd or stale name, so each distinct miss logs one warning per
/// process. Lives behind an atomic so release call sites pay one relaxed
/// load when the default is off.
std::atomic<bool> g_warn_unknown_names{
#ifdef NDEBUG
    false
#else
    true
#endif
};

std::mutex g_warned_names_mu;

void WarnUnknownMetricName(const char* kind, const std::string& name) {
  if (!g_warn_unknown_names.load(std::memory_order_relaxed)) return;
  {
    static std::set<std::string>* warned
        COACHLM_GUARDED_BY(g_warned_names_mu) = new std::set<std::string>();
    std::lock_guard<std::mutex> lock(g_warned_names_mu);
    if (!warned->insert(name).second) return;  // already warned once
  }
  LogMessage(LogLevel::kWarning,
             std::string("metric name \"") + name + "\" is not a registered " +
                 kind +
                 " in the MetricCatalog (src/common/metrics.cc); the lookup "
                 "is a no-op");
}

}  // namespace

void MetricsRegistry::set_warn_on_unknown_names(bool warn) {
  g_warn_unknown_names.store(warn, std::memory_order_relaxed);
}

Counter* MetricsRegistry::FindCounter(const std::string& name) {
  if (!enabled()) return nullptr;
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    WarnUnknownMetricName("counter", name);
    return nullptr;
  }
  return &it->second;
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) {
  if (!enabled()) return nullptr;
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    WarnUnknownMetricName("gauge", name);
    return nullptr;
  }
  return &it->second;
}

MetricHistogram* MetricsRegistry::FindHistogram(const std::string& name) {
  if (!enabled()) return nullptr;
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    WarnUnknownMetricName("histogram", name);
    return nullptr;
  }
  return &it->second;
}

void MetricsRegistry::Reset() {
  for (auto& [name, counter] : counters_) counter.Reset();
  for (auto& [name, gauge] : gauges_) gauge.Reset();
  for (auto& [name, histogram] : histograms_) histogram.Reset();
}

json::Value MetricsRegistry::ToJson() const {
  json::Object counters;
  for (const auto& [name, counter] : counters_) {
    if (counter.value() == 0) continue;
    counters[name] = json::Value(counter.value() <= INT64_MAX
                                     ? static_cast<int64_t>(counter.value())
                                     : INT64_MAX);
  }
  json::Object gauges;
  for (const auto& [name, gauge] : gauges_) {
    if (gauge.value() == 0) continue;
    gauges[name] = json::Value(gauge.value());
  }
  json::Object histograms;
  for (const auto& [name, histogram] : histograms_) {
    if (histogram.count() == 0) continue;
    json::Object h;
    json::Array buckets;
    for (const int64_t b : histogram.bounds()) buckets.push_back(json::Value(b));
    json::Array counts;
    for (const uint64_t c : histogram.counts()) {
      counts.push_back(json::Value(static_cast<int64_t>(c)));
    }
    h["buckets"] = json::Value(std::move(buckets));
    h["counts"] = json::Value(std::move(counts));
    h["count"] = json::Value(static_cast<int64_t>(histogram.count()));
    h["sum"] = json::Value(histogram.sum());
    histograms[name] = json::Value(std::move(h));
  }
  json::Object out;
  out["counters"] = json::Value(std::move(counters));
  out["gauges"] = json::Value(std::move(gauges));
  out["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(out));
}

std::string MetricsRegistry::CatalogDump() {
  std::string out;
  for (const MetricDef& def : MetricCatalog()) {
    out += def.name;
    out += '\t';
    out += MetricTypeName(def.type);
    out += '\t';
    out += def.unit;
    out += '\t';
    out += def.stage;
    out += '\t';
    out += def.help;
    out += '\n';
  }
  return out;
}

void CountMetric(const std::string& name, uint64_t delta) {
  if (Counter* counter = MetricsRegistry::Default().FindCounter(name)) {
    counter->Add(delta);
  }
}

void SetGaugeMetric(const std::string& name, int64_t value) {
  if (Gauge* gauge = MetricsRegistry::Default().FindGauge(name)) {
    gauge->Set(value);
  }
}

void ObserveMetric(const std::string& name, int64_t value) {
  if (MetricHistogram* histogram = MetricsRegistry::Default().FindHistogram(name)) {
    histogram->Observe(value);
  }
}

}  // namespace coachlm
