#ifndef COACHLM_TOOLS_COACHLM_FLAGS_H_
#define COACHLM_TOOLS_COACHLM_FLAGS_H_

#include <string>

#include "common/flags.h"
#include "text/string_util.h"

namespace coachlm {

/// Every `coachlm` command and flag: the CLI's one flag table.
inline const FlagTable& CoachlmFlagTable() {
  using enum FlagKind;
  // Bit i is the i-th command of the table; keep the two orders in step.
  enum : uint32_t {
    kGenerate = 1u << 0, kStudy = 1u << 1, kTrain = 1u << 2,
    kRevise = 1u << 3, kRate = 1u << 4, kInspect = 1u << 5, kDiff = 1u << 6,
    kEvaluate = 1u << 7, kPipeline = 1u << 8, kConvert = 1u << 9,
    kMetrics = 1u << 10, kServe = 1u << 11, kEvery = (1u << 12) - 1,
    kRuns = kGenerate | kRevise | kPipeline,  // the corpus-scale batch runs
  };
  auto check_manifest = [](const std::string& path) -> Status {
    if (path != ".manifest.json" &&
        strings::EndsWith(path, ".manifest.json")) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        "--corpus-manifest must name a .manifest.json file (got '" + path +
        "')");
  };
  // One row per line, like a lexer spec: name, kind, commands, default,
  // choices (read by index: keep their order) or placeholder, doc, min, max.
  // clang-format off
  static const FlagTable table{"coachlm", {
      {"generate", "synthesize an ALPACA52K-like instruction dataset"},
      {"study", "run the expert revision study"},
      {"train", "coach instruction tuning (writes a rule checkpoint)"},
      {"revise", "revise a dataset with a trained CoachLM"},
      {"rate", "ChatGPT-style 0-5 quality report"},
      {"inspect", "print the rule store a checkpoint learned"},
      {"diff", "revision magnitude + per-dimension flaw-rate movement"},
      {"evaluate", "tune + judge the model zoo"},
      {"pipeline", "generate -> study -> train -> revise in one run"},
      {"convert", "re-encode a corpus (JSON / JSONL / binary shards)"},
      {"metrics", "print the metric catalog (name, type, unit, stage, help)"},
      {"serve", "revision service on 127.0.0.1 (docs/SERVING.md)"},
    }, {
      {"size", kInt, kGenerate | kPipeline, "52000", "N", "pairs to synthesize"},
      {"seed", kInt, kGenerate | kPipeline, "42", "S", "corpus seed"},
      {"seed", kInt, kStudy, "17", "S", "study sampling seed"},
      {"sample", kInt, kStudy | kPipeline, "6000", "N", "pairs the expert study examines"},
      {"study-seed", kInt, kPipeline, "17", "S", "study sampling seed"},
      {"in", kString, kStudy | kRevise | kRate | kConvert, "corpus.json", "FILE", "input corpus"},
      {"corpus-manifest", kString, kStudy | kRevise | kRate | kConvert, nullptr, "FILE", "input shard manifest (overrides --in; revise resumes shard by shard)", 0, 0, check_manifest},
      {"out", kString, kGenerate, "corpus.json", "FILE", "output corpus"},
      {"out", kString, kStudy, "revisions.jsonl", "FILE", "revision records"},
      {"out", kString, kRevise | kPipeline, "revised.json", "FILE", "revised corpus"},
      {"out", kString, kConvert, "corpus.clmb", "FILE", "output corpus"},
      {"format", kEnum, kRuns | kConvert, "auto", "auto|json|jsonl|binary", "output format (auto: by extension .jsonl, .clmb/.bin, else JSON)"},
      {"shards", kInt, kRuns | kConvert, "1", "N", "split the output into N shard files plus a .manifest.json index", 1, 100000},
      {"merged", kString, kStudy, nullptr, "FILE", "also write the Alpaca-human training set"},
      {"revisions", kString, kTrain, "revisions.jsonl", "FILE", "revision records to coach-tune on"},
      {"checkpoint", kString, kTrain | kRevise | kInspect | kServe, "coach.json", "FILE", "coach checkpoint (train writes it)"},
      {"alpha", kDouble, kTrain | kRevise | kPipeline | kServe, "0.3", "A", "human input ratio: the top share of revisions, by edit distance, trained on", 0, 1},
      {"backbone", kEnum, kTrain | kRevise | kPipeline | kServe, "chatglm2", "llama|chatglm|chatglm2", "coach backbone"},
      {"verify", kSwitch, kRevise | kServe, nullptr, "", "self-check response expansions"},
      {"detailed", kSwitch, kRate, nullptr, "", "add the per-dimension table"},
      {"before", kString, kDiff, nullptr, "FILE", "corpus before revision"},
      {"after", kString, kDiff, nullptr, "FILE", "corpus after revision"},
      {"original", kString, kEvaluate, "corpus.json", "FILE", "original corpus"},
      {"revised", kString, kEvaluate, "revised.json", "FILE", "coach-revised corpus"},
      {"human", kString, kEvaluate, nullptr, "FILE", "expert-merged corpus (default: --original)"},
      {"testset", kEnum, kEvaluate, "coachlm150", "coachlm150|pandalm170|vicuna80|selfinstruct252", "judged test set"},
      {"validate", kString, kMetrics, nullptr, "FILE", "schema-check a run report or bench trajectory"},
      {"threads", kInt, kRuns | kStudy | kRate | kDiff | kEvaluate, nullptr, "T", "workers (default: COACHLM_THREADS, else hardware concurrency); output is byte-identical at any count", 1, 1024},
      // Fault tolerance and resource governance.
      {"fault-plan", kString, kRuns | kServe, nullptr, "SPEC", "deterministic faults, e.g. rate=0.05,permanent=0.001,seed=7,sites=revise+io (default: COACHLM_FAULT_PLAN)"},
      {"retry-max", kInt, kRuns | kServe, "4", "N", "attempts per record before quarantine", 1, INT32_MAX},
      {"quarantine", kString, kRuns, nullptr, "FILE", "save permanently-failed records as JSONL"},
      {"checkpoint-dir", kString, kRuns, nullptr, "DIR", "journal progress for crash-safe runs"},
      {"checkpoint-interval", kInt, kRuns, "2048", "N", "items journaled per commit", 1},
      {"resume", kSwitch, kRuns, nullptr, "", "continue from the journal in --checkpoint-dir (else restart)"},
      {"crash-after-commits", kInt, kRuns, nullptr, "N", "testing: kill the process after the Nth checkpoint commit", 1, INT32_MAX},
      {"deadline-ms", kInt, kRuns, nullptr, "N", "wall-clock budget: cancel, quarantine the rest, keep the journal for --resume", 1, INT32_MAX},
      {"stall-timeout-ms", kInt, kRuns, nullptr, "N", "cancel when no record completes for N ms", 1, INT32_MAX},
      // Serving.
      {"port", kInt, kServe, "8080", "P", "listen port on 127.0.0.1", 1, 65535},
      {"serve-workers", kInt, kServe, "4", "W", "worker pool size", 1, 1024},
      {"serve-processes", kInt, kServe, "1", "N", "crash-only mode: N supervised processes share the port; a crash loop trips a circuit breaker (exit 3)", 1, 256},
      {"queue-depth", kInt, kServe, "64", "Q", "admission queue bound; a full queue sheds with 429", 1, 1000000},
      {"request-deadline-ms", kInt, kServe, "2000", "D", "per-request budget; a blown deadline is a typed 504", 1, INT32_MAX},
      {"read-timeout-ms", kInt, kServe, nullptr, "N", "socket read timeout; a stalled peer gets 408 (default: the request deadline)", 1, INT32_MAX},
      {"write-timeout-ms", kInt, kServe, nullptr, "N", "socket write timeout (default: the request deadline)", 1, INT32_MAX},
      // Every command.
      {"max-record-bytes", kInt, kEvery, nullptr, "N", "largest record/line in bytes (default 4194304; full spec: COACHLM_PARSE_LIMITS)", 1},
      {"max-json-depth", kInt, kEvery, nullptr, "N", "deepest JSON container nesting (default 32)", 1},
      {"metrics-out", kString, kEvery, nullptr, "FILE", "write a JSON run report (default: COACHLM_METRICS_OUT)"},
      {"metrics-deterministic", kSwitch, kEvery, nullptr, "", "pin the report's volatile fields so a seeded run's report is byte-identical (default: COACHLM_METRICS_DETERMINISTIC=1)"},
    }};
  // clang-format on
  return table;
}

}  // namespace coachlm

#endif  // COACHLM_TOOLS_COACHLM_FLAGS_H_
