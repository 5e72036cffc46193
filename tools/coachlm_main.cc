// The coachlm command-line tool: the Fig. 2 pipeline as composable
// filesystem steps, so the library can be driven without writing C++.
// Every step is deterministic given its seeds; datasets are plain
// Alpaca-format JSON and revisions are JSONL, so steps interoperate with
// external tooling. Its flags are declared in coachlm_flags.cc.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "coach/pipeline.h"
#include "coach/trainer.h"
#include "common/cancel.h"
#include "common/checkpoint.h"
#include "common/clock.h"
#include "common/env.h"
#include "common/execution.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/report.h"
#include "common/retry.h"
#include "common/runtime.h"
#include "common/table_writer.h"
#include "common/trace.h"
#include "json/jsonl.h"
#include "json/parse_limits.h"
#include "data/corpus_io.h"
#include "data/revision_io.h"
#include "data/shard.h"
#include "expert/pipeline.h"
#include "quality/accuracy_rater.h"
#include "quality/quality_report.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "synth/generator.h"
#include "testsets/testset.h"
#include "tuning/evaluation.h"
#include "tuning/model_zoo.h"

#include "coachlm_flags.h"

namespace coachlm {
namespace {

/// The command's execution context, sized by --threads. Commands run once
/// per process, so a function-local static covers the one non-default width.
const ExecutionContext& FlagExec(const Flags& flags) {
  const size_t threads = static_cast<size_t>(flags.Int("threads"));
  if (threads == 0) return ExecutionContext::Default();
  static const ExecutionContext exec(threads);
  return exec;
}

/// \name Observed dataset IO
/// Dataset loads/saves wrapped in "load"/"save" spans, so run reports
/// account for IO wall time explicitly instead of leaving it as uncovered
/// root-span remainder. All paths go through the corpus_io factories, so
/// every command reads JSON, JSONL, binary, and sharded corpora alike.
/// @{
Result<InstructionDataset> LoadDataset(const std::string& path) {
  const StageSpan span("load");
  return LoadCorpus(path);
}

Status SaveDataset(const InstructionDataset& dataset, const std::string& path,
                   const CorpusWriteOptions& options = {}) {
  const StageSpan span("save");
  return SaveCorpus(path, dataset, options);
}
/// @}

/// Output-side corpus choices from --format / --shards.
CorpusWriteOptions FlagWriteOptions(const Flags& flags) {
  CorpusWriteOptions options;
  // The --format row lists its choices in CorpusFormat order.
  options.format = static_cast<CorpusFormat>(flags.Choice("format"));
  options.shards = static_cast<size_t>(flags.Int("shards"));
  return options;
}

/// The input corpus path: --corpus-manifest if given, else --in.
const std::string& InputPath(const Flags& flags) {
  return flags.String(flags.Has("corpus-manifest") ? "corpus-manifest" : "in");
}

/// The coach configuration from --alpha, --backbone and --verify.
coach::CoachConfig FlagCoachConfig(const Flags& flags) {
  // In the order of the --backbone row's choices.
  static constexpr lm::BackboneProfile (*kBackbones[])() = {
      lm::Llama7B, lm::ChatGlm6B, lm::ChatGlm26B};
  coach::CoachConfig config;
  config.alpha = flags.Double("alpha");
  config.backbone = kBackbones[flags.Choice("backbone")]();
  config.verify_expansions = flags.Has("verify");
  return config;
}

/// Builds the fault-tolerance runtime from --fault-plan and --retry-max;
/// nullptr when neither is given (callers then use PipelineRuntime::
/// Default(), which honors COACHLM_FAULT_PLAN / COACHLM_RETRY_MAX). Main
/// calls this once, before dispatch, so a bad spec is a usage error.
Result<std::unique_ptr<PipelineRuntime>> MakeRuntime(const Flags& flags) {
  if (!flags.Has("fault-plan") && !flags.Has("retry-max")) {
    return std::unique_ptr<PipelineRuntime>();
  }
  COACHLM_ASSIGN_OR_RETURN(FaultPlan plan,
                           FaultPlan::Parse(flags.String("fault-plan")));
  RetryPolicy policy;
  policy.max_attempts = static_cast<int>(flags.Int("retry-max"));
  return std::make_unique<PipelineRuntime>(FaultInjector(plan), policy);
}

/// The wall-clock budget and stall watchdog of a governed command. Owns
/// the CancelToken the runtime polls; keep it alive until the command
/// returns.
struct Governance {
  std::unique_ptr<CancelToken> token;
  std::unique_ptr<StallWatchdog> watchdog;

  bool cancelled() const { return token != nullptr && token->cancelled(); }
};

/// Builds governance from --deadline-ms / --stall-timeout-ms and attaches
/// it to \p runtime. With neither flag the runtime keeps its zero-overhead
/// ungoverned path.
Governance MakeGovernance(const Flags& flags, PipelineRuntime* runtime) {
  Governance governance;
  const int64_t deadline_ms = flags.Int("deadline-ms");
  const int64_t stall_ms = flags.Int("stall-timeout-ms");
  if (deadline_ms <= 0 && stall_ms <= 0) return governance;
  Clock* clock = Clock::System();
  governance.token =
      deadline_ms > 0
          ? std::make_unique<CancelToken>(
                clock, clock->NowMicros() + deadline_ms * 1000)
          : std::make_unique<CancelToken>();
  runtime->set_cancel_token(governance.token.get());
  if (stall_ms > 0) {
    governance.watchdog = std::make_unique<StallWatchdog>(
        clock, governance.token.get(), flags.command(), stall_ms * 1000);
    runtime->set_watchdog(governance.watchdog.get());
    // Poll a few times per stall budget so detection lag stays small
    // relative to the budget itself.
    governance.watchdog->Start(
        std::max<int64_t>(stall_ms * 1000 / 4, 10000));
  }
  return governance;
}

/// Prints why a governed run stopped early. The command still exits 0:
/// its outputs are written (unprocessed records pass through, quarantined)
/// and a checkpointed run can continue with --resume.
void ReportCancellation(const Governance& governance, bool checkpointed) {
  if (!governance.cancelled()) return;
  std::printf("run cancelled: %s%s\n",
              governance.token->status().ToString().c_str(),
              checkpointed ? " (checkpoint kept; re-run with --resume to "
                             "finish)"
                           : "");
}

/// The checkpointer for \p stage, enabled by --checkpoint-dir. Without
/// --resume any prior journal is discarded first, so a re-run starts
/// fresh; with it, the stage continues from the journaled cursor.
std::unique_ptr<StageCheckpointer> MakeCheckpointer(
    const Flags& flags, const std::string& stage,
    const std::string& fingerprint) {
  // Heap-allocated: the checkpointer owns its async-commit thread and is
  // therefore not movable.
  auto checkpoint = std::make_unique<StageCheckpointer>(
      flags.String("checkpoint-dir"), stage, ConfigFingerprint(fingerprint),
      static_cast<size_t>(flags.Int("checkpoint-interval")));
  if (checkpoint->enabled() && !flags.Has("resume")) {
    // Discarding a stale journal is best-effort: if it survives, the
    // fingerprint check rejects it at the next Resume anyway.
    (void)checkpoint->Finish();
  }
  checkpoint->set_crash_after_commits(
      static_cast<int>(flags.Int("crash-after-commits")));
  return checkpoint;
}

/// Prints what the runtime absorbed and saves the quarantine log when
/// --quarantine was given.
Status ReportRuntime(const PipelineRuntime& runtime, const Flags& flags) {
  if (runtime.recovered_records() > 0 || runtime.quarantined_records() > 0) {
    std::printf("runtime: %llu records recovered via retry, "
                "%zu quarantined\n",
                static_cast<unsigned long long>(runtime.recovered_records()),
                runtime.quarantined_records());
  }
  if (flags.Has("quarantine")) {
    const std::string& path = flags.String("quarantine");
    COACHLM_RETURN_NOT_OK(runtime.quarantine().Save(path));
    std::printf("wrote %zu quarantine records to %s\n",
                runtime.quarantine().size(), path.c_str());
  }
  return Status::OK();
}

Status RunGenerate(const Flags& flags, PipelineRuntime* runtime) {
  synth::CorpusConfig config;
  config.size = static_cast<size_t>(flags.Int("size"));
  config.seed = static_cast<uint64_t>(flags.Int("seed"));
  synth::SynthCorpusGenerator generator(config);
  const Governance governance = MakeGovernance(flags, runtime);
  std::unique_ptr<StageCheckpointer> checkpoint = MakeCheckpointer(
      flags, "generate",
      "generate size=" + std::to_string(config.size) +
          " seed=" + std::to_string(config.seed) +
          " plan=" + runtime->injector().plan().ToString());
  const synth::SynthCorpus corpus =
      generator.Generate(FlagExec(flags), runtime, checkpoint.get());
  // A cancelled run keeps its journal so --resume can finish the work.
  if (checkpoint->enabled() && !governance.cancelled()) {
    COACHLM_RETURN_NOT_OK(checkpoint->Finish());
  }
  const std::string out = flags.String("out");
  COACHLM_RETURN_NOT_OK(SaveDataset(corpus.dataset, out, FlagWriteOptions(flags)));
  std::printf("wrote %zu pairs to %s\n", corpus.dataset.size(), out.c_str());
  ReportCancellation(governance, checkpoint->enabled());
  return ReportRuntime(*runtime, flags);
}

Status RunStudy(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset corpus,
                           LoadDataset(InputPath(flags)));
  synth::ContentEngine engine;
  expert::RevisionStudyConfig config;
  config.sample_size = static_cast<size_t>(flags.Int("sample"));
  config.seed = static_cast<uint64_t>(flags.Int("seed"));
  const auto study =
      expert::RunRevisionStudy(corpus, engine, config, {}, FlagExec(flags));
  const std::string out = flags.String("out");
  {
    const StageSpan save_span("save");
    COACHLM_RETURN_NOT_OK(SaveRevisions(out, study.revisions));
  }
  std::printf("examined %zu pairs: %zu excluded, %zu revised "
              "(instruction side %zu), %.0f person-days\n",
              config.sample_size, study.filter_stats.TotalExcluded(),
              study.revised_pairs, study.instruction_revised_pairs,
              study.person_days);
  std::printf("wrote %zu revision records to %s\n", study.revisions.size(),
              out.c_str());
  if (flags.Has("merged")) {
    const std::string merged = flags.String("merged");
    COACHLM_RETURN_NOT_OK(SaveDataset(study.merged_dataset, merged));
    std::printf("wrote Alpaca-human training set to %s\n", merged.c_str());
  }
  return Status::OK();
}

Status RunTrain(const Flags& flags) {
  Result<RevisionDataset> loaded = [&] {
    const StageSpan load_span("load");
    return LoadRevisions(flags.String("revisions"));
  }();
  COACHLM_ASSIGN_OR_RETURN(RevisionDataset revisions, std::move(loaded));
  const coach::CoachConfig config = FlagCoachConfig(flags);
  const coach::CoachLm model = [&] {
    const StageSpan train_span("train");
    return coach::CoachTrainer(config).Train(revisions);
  }();
  const std::string checkpoint = flags.String("checkpoint");
  {
    const StageSpan save_span("save");
    COACHLM_RETURN_NOT_OK(model.SaveCheckpoint(checkpoint));
  }
  std::printf("coach tuned on %zu of %zu revision pairs (alpha=%.2f, "
              "backbone=%s); checkpoint: %s\n",
              model.rules().train_pairs, revisions.size(), config.alpha,
              config.backbone.name.c_str(), checkpoint.c_str());
  return Status::OK();
}

Status RunRevise(const Flags& flags, PipelineRuntime* runtime) {
  const std::string in = InputPath(flags);
  const coach::CoachConfig config = FlagCoachConfig(flags);
  COACHLM_ASSIGN_OR_RETURN(
      coach::CoachLm model,
      coach::CoachLm::LoadCheckpoint(flags.String("checkpoint"), config));
  const Governance governance = MakeGovernance(flags, runtime);
  const std::string fingerprint =
      "revise in=" + in + " alpha=" + std::to_string(config.alpha) +
      " backbone=" + config.backbone.name +
      " plan=" + runtime->injector().plan().ToString();

  COACHLM_ASSIGN_OR_RETURN(const CorpusSniff sniff, SniffCorpus(in));
  coach::RevisionPassStats stats;
  InstructionDataset revised;
  bool checkpointed = false;
  if (sniff.sharded) {
    // Per-shard resumable execution: every shard is its own checkpoint /
    // resume unit (shard-qualified stage name and fingerprint), and the
    // outputs concatenate in shard order — byte-identical to the
    // whole-corpus pass because each pair's RNG derives from its id, not
    // its position. A killed run resumes finished shards instantly from
    // their journals and recomputes only the unfinished remainder.
    COACHLM_ASSIGN_OR_RETURN(const ShardManifest manifest,
                             ShardManifest::Load(in));
    const size_t num_shards = manifest.shards.size();
    revised.pairs().reserve(static_cast<size_t>(manifest.TotalRecords()));
    for (size_t k = 0; k < num_shards; ++k) {
      COACHLM_ASSIGN_OR_RETURN(std::unique_ptr<RecordReader> reader,
                               OpenShard(manifest, in, k));
      std::unique_ptr<StageCheckpointer> checkpoint = MakeCheckpointer(
          flags, ShardStageName("revise", k, num_shards),
          fingerprint + " shard=" + manifest.shards[k].file);
      checkpointed = checkpointed || checkpoint->enabled();
      DatasetRecordWriter writer(&revised);
      COACHLM_ASSIGN_OR_RETURN(
          const coach::RevisionPassStats shard_stats,
          model.ReviseRecords(reader.get(), &writer, {}, FlagExec(flags),
                              runtime, checkpoint.get()));
      stats.total += shard_stats.total;
      stats.invalid_replaced += shard_stats.invalid_replaced;
      stats.leakage_skipped += shard_stats.leakage_skipped;
      stats.changed += shard_stats.changed;
      stats.quarantined += shard_stats.quarantined;
      stats.recovered += shard_stats.recovered;
      stats.resumed += shard_stats.resumed;
      if (checkpoint->enabled() && !governance.cancelled()) {
        COACHLM_RETURN_NOT_OK(checkpoint->Finish());
      }
    }
  } else {
    COACHLM_ASSIGN_OR_RETURN(InstructionDataset corpus, LoadDataset(in));
    std::unique_ptr<StageCheckpointer> checkpoint =
        MakeCheckpointer(flags, "revise", fingerprint);
    checkpointed = checkpoint->enabled();
    revised = model.ReviseDataset(corpus, {}, &stats, FlagExec(flags),
                                  runtime, checkpoint.get());
    if (checkpoint->enabled() && !governance.cancelled()) {
      COACHLM_RETURN_NOT_OK(checkpoint->Finish());
    }
  }
  const std::string out = flags.String("out");
  COACHLM_RETURN_NOT_OK(SaveDataset(revised, out, FlagWriteOptions(flags)));
  std::printf("revised %zu pairs (%zu changed, %zu invalid outputs "
              "replaced, %zu quarantined, %zu resumed); wrote %s\n",
              stats.total, stats.changed, stats.invalid_replaced,
              stats.quarantined, stats.resumed, out.c_str());
  ReportCancellation(governance, checkpointed);
  return ReportRuntime(*runtime, flags);
}

Status RunRate(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset dataset,
                           LoadDataset(InputPath(flags)));
  const auto rating =
      quality::AccuracyRater().RateDataset(dataset, FlagExec(flags));
  std::printf("%zu pairs: mean rating %.2f / 5, %.1f%% above 4.5\n",
              dataset.size(), rating.mean,
              rating.fraction_above_45 * 100.0);
  if (flags.Has("detailed")) {
    std::printf(
        "%s",
        quality::AnalyzeDataset(dataset, FlagExec(flags)).ToAscii().c_str());
  }
  return Status::OK();
}

Status RunInspect(const Flags& flags) {
  coach::CoachConfig config;
  COACHLM_ASSIGN_OR_RETURN(
      coach::CoachLm model,
      coach::CoachLm::LoadCheckpoint(flags.String("checkpoint"), config));
  const lm::RuleStore& rules = model.rules();
  std::printf("checkpoint: %s\n", flags.String("checkpoint").c_str());
  std::printf("trained on %zu coach-tuning samples\n\n", rules.train_pairs);

  std::printf("alignment statistics (what the coach will do):\n");
  std::printf("  expansion: ~%.1f sentences/pair toward %.0f words\n",
              rules.mean_appended_sentences,
              rules.mean_target_response_words);
  std::printf("  closing rate %.0f%%, context-add rate %.0f%%, rewrite "
              "rate %.0f%% (threshold %.3f)\n\n",
              rules.closing_rate * 100, rules.context_add_rate * 100,
              rules.rewrite_rate * 100, rules.rewrite_overlap_threshold);

  TableWriter subs({"Substitution", "->", "Support"});
  size_t shown = 0;
  for (const auto& [from, targets] : rules.token_subs) {
    for (const auto& [to, support] : targets) {
      if (shown++ >= 15) break;
      subs.AddRow({from, to, std::to_string(support)});
    }
  }
  std::printf("word substitutions (%zu learned, top shown):\n%s\n",
              rules.token_subs.size(), subs.ToAscii().c_str());

  auto print_table = [](const char* title,
                        const std::map<std::string, size_t>& table) {
    std::printf("%s (%zu):\n", title, table.size());
    size_t i = 0;
    for (const std::string& phrase :
         lm::RuleStore::PhrasesAbove(table, 1)) {
      if (i++ >= 6) break;
      std::printf("  [%s] x%zu\n", phrase.c_str(), table.at(phrase));
    }
    std::printf("\n");
  };
  print_table("learned closings", rules.closings);
  print_table("learned discourse markers", rules.markers);
  print_table("learned opener removals", rules.opener_removals);
  print_table("learned clause strips", rules.strip_phrases);
  std::printf("surface normalizations: capitalize x%zu, dedouble x%zu, "
              "reflow x%zu\n",
              rules.capitalize_support, rules.doubled_removal_support,
              rules.reflow_support);
  return Status::OK();
}

Status RunDiff(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset before,
                           LoadDataset(flags.String("before")));
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset after,
                           LoadDataset(flags.String("after")));
  if (before.size() != after.size()) {
    return Status::InvalidArgument(
        "datasets differ in size (" + std::to_string(before.size()) +
        " vs " + std::to_string(after.size()) + ")");
  }
  size_t instruction_changed = 0;
  size_t response_changed = 0;
  double edit_chars = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    RevisionRecord record;
    record.original = before[i];
    record.revised = after[i];
    record.RecomputeDerived();
    if (record.instruction_changed) ++instruction_changed;
    if (record.response_changed) ++response_changed;
    edit_chars += static_cast<double>(record.char_edit_distance);
  }
  std::printf("%zu pairs: %zu instructions changed, %zu responses changed, "
              "mean edit %.0f chars/pair\n",
              before.size(), instruction_changed, response_changed,
              edit_chars / static_cast<double>(before.size()));
  std::printf("%s", quality::QualityReport::Compare(
                        quality::AnalyzeDataset(before, FlagExec(flags)),
                        quality::AnalyzeDataset(after, FlagExec(flags)))
                        .c_str());
  return Status::OK();
}

Status RunEvaluate(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset original,
                           LoadDataset(flags.String("original")));
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset revised,
                           LoadDataset(flags.String("revised")));
  InstructionDataset human = original;
  if (flags.Has("human")) {
    COACHLM_ASSIGN_OR_RETURN(human, LoadDataset(flags.String("human")));
  }
  // In the order of the --testset row's choices.
  static constexpr testsets::TestSet (*kTestSets[])() = {
      testsets::CoachLm150, testsets::PandaLm170, testsets::Vicuna80,
      testsets::SelfInstruct252};
  const testsets::TestSet set = kTestSets[flags.Choice("testset")]();

  tuning::ZooInputs inputs;
  inputs.original = &original;
  inputs.human_merged = &human;
  inputs.coach_revised = &revised;
  tuning::InstructionTuner tuner;
  const ExecutionContext& exec = FlagExec(flags);
  const judge::PairwiseJudge panda(judge::PandaLmProfile());
  TableWriter table({"Model", "WR1", "WR2", "QS"});
  for (const auto& entry : tuning::BuildBaselineGroup(inputs, tuner, exec)) {
    const auto eval =
        tuning::EvaluateModel(entry.model, set, panda, /*seed=*/5150, exec);
    table.AddRow({entry.model.spec().name, TableWriter::Pct(eval.rates.wr1),
                  TableWriter::Pct(eval.rates.wr2),
                  TableWriter::Pct(eval.rates.qs)});
  }
  std::printf("test set: %s (%zu items, refs: %s)\n%s", set.name.c_str(),
              set.items.size(), set.reference_source.c_str(),
              table.ToAscii().c_str());
  return Status::OK();
}

Status RunPipeline(const Flags& flags, PipelineRuntime* runtime) {
  // The Fig. 2 flow in one process: synthesize a corpus, run the expert
  // study, train CoachLM, revise the corpus. The revision pass — the
  // dominant stage — is the one journaled under --checkpoint-dir.
  synth::CorpusConfig corpus_config;
  corpus_config.size = static_cast<size_t>(flags.Int("size"));
  corpus_config.seed = static_cast<uint64_t>(flags.Int("seed"));
  const Governance governance = MakeGovernance(flags, runtime);
  const ExecutionContext& exec = FlagExec(flags);

  synth::SynthCorpusGenerator generator(corpus_config);
  const synth::SynthCorpus corpus = generator.Generate(exec, runtime);
  std::printf("generated %zu pairs\n", corpus.dataset.size());

  synth::ContentEngine engine;
  expert::RevisionStudyConfig study_config;
  study_config.sample_size = static_cast<size_t>(flags.Int("sample"));
  study_config.seed = static_cast<uint64_t>(flags.Int("study-seed"));
  const auto study = expert::RunRevisionStudy(corpus.dataset, engine,
                                              study_config, {}, exec);
  std::printf("study: %zu revision records from %zu sampled pairs\n",
              study.revisions.size(), study_config.sample_size);

  const coach::CoachConfig coach_config = FlagCoachConfig(flags);

  std::unique_ptr<StageCheckpointer> checkpoint = MakeCheckpointer(
      flags, "pipeline-revise",
      "pipeline size=" + std::to_string(corpus_config.size) +
          " seed=" + std::to_string(corpus_config.seed) +
          " sample=" + std::to_string(study_config.sample_size) +
          " study-seed=" + std::to_string(study_config.seed) +
          " alpha=" + std::to_string(coach_config.alpha) +
          " backbone=" + coach_config.backbone.name +
          " plan=" + runtime->injector().plan().ToString());
  const coach::CoachPipelineResult result = coach::RunCoachPipeline(
      corpus.dataset, study.revisions, coach_config, exec, runtime,
      checkpoint.get());
  if (checkpoint->enabled() && !governance.cancelled()) {
    COACHLM_RETURN_NOT_OK(checkpoint->Finish());
  }

  const std::string out = flags.String("out");
  COACHLM_RETURN_NOT_OK(
      SaveDataset(result.revised_dataset, out, FlagWriteOptions(flags)));
  std::printf("revised %zu pairs (%zu changed, %zu invalid outputs "
              "replaced, %zu quarantined, %zu recovered, %zu resumed); "
              "wrote %s\n",
              result.stats.total, result.stats.changed,
              result.stats.invalid_replaced, result.stats.quarantined,
              result.stats.recovered, result.stats.resumed, out.c_str());
  ReportCancellation(governance, checkpoint->enabled());
  return ReportRuntime(*runtime, flags);
}

Status RunConvert(const Flags& flags) {
  // Re-encode a corpus between backends: JSONL -> sharded binary for
  // scale, binary -> JSON for interop, and every other combination. The
  // record values pass through untouched, so a round trip reproduces the
  // original bytes (the corpus-io CI job cmp-checks exactly that).
  const std::string in = InputPath(flags);
  const std::string out = flags.String("out");
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset dataset, LoadDataset(in));
  COACHLM_RETURN_NOT_OK(SaveDataset(dataset, out, FlagWriteOptions(flags)));
  std::printf("converted %zu pairs: %s -> %s\n", dataset.size(), in.c_str(),
              out.c_str());
  return Status::OK();
}

/// Run-report path of worker \p index under a supervised serve: the parent
/// merges and removes these after the fleet drains.
std::string WorkerReportPath(const std::string& metrics_out, int index) {
  return metrics_out + ".worker-" + std::to_string(index);
}

/// `coachlm serve --serve-processes N` (N > 1): crash-only mode. The
/// parent process never serves; it forks N workers that each bind the
/// shared port via SO_REUSEPORT and supervises them — reap on death,
/// respawn on a deterministic exponential backoff, circuit-break a crash
/// loop (exit kSupervisorCircuitExitCode), forward SIGTERM (drain) and
/// SIGHUP (reload) to the fleet. Each worker writes its own run report;
/// the parent folds them into its registry so Main() emits one merged,
/// schema-identical report for the whole fleet.
Status RunServeSupervised(serve::ServeConfig config, int processes,
                          const std::string& metrics_out) {
  // Fail fast in the parent: a checkpoint that cannot load would send
  // every worker into the same crash loop, which the circuit breaker
  // would stop — but a typed startup error is cheaper and clearer.
  {
    serve::ModelHost probe(config.checkpoint, config.coach);
    COACHLM_RETURN_NOT_OK(probe.Load());
  }
  config.reuse_port = true;

  const bool observed = !metrics_out.empty();

  serve::SupervisorConfig supervisor_config;
  supervisor_config.processes = processes;

  auto worker_body = [&config, &metrics_out, observed](int index) -> int {
    // The child inherited the parent's signal flags, metric counts, and
    // open root span; start clean so its report covers only this worker.
    serve::ResetServeSignalsForTest();
    serve::InstallServeSignalHandlers();
    int worker_span = -1;
    if (observed) {
      MetricsRegistry::Default().Reset();
      Observability::Default().trace().Reset();
      worker_span = Observability::Default().trace().BeginSpan("serve");
    }
    serve::ModelHost models(config.checkpoint, config.coach);
    if (!models.Load().ok()) return 1;
    serve::RevisionServer server(config, &models);
    const Status started = server.StartServing();
    if (!started.ok()) {
      std::fprintf(stderr, "serve worker %d: %s\n", index,
                   started.ToString().c_str());
      return 1;
    }
    server.AwaitDrain();
    if (worker_span >= 0) {
      Observability::Default().trace().EndSpan(worker_span);
      RunReportOptions options;
      options.command = "serve";
      const Status report =
          WriteRunReport(WorkerReportPath(metrics_out, index), options);
      if (!report.ok()) {
        std::fprintf(stderr, "serve worker %d: report: %s\n", index,
                     report.ToString().c_str());
        return 1;
      }
    }
    return 0;
  };

  serve::InstallServeSignalHandlers();
  serve::WorkerSupervisor supervisor(supervisor_config, worker_body);
  COACHLM_RETURN_NOT_OK(supervisor.Start());
  std::printf("serving on 127.0.0.1:%d with %d supervised worker processes "
              "(checkpoint %s); SIGTERM drains, SIGHUP reloads\n",
              config.port, processes, config.checkpoint.c_str());
  std::fflush(stdout);
  const int code = supervisor.Run();
  const serve::SupervisorStats& stats = supervisor.stats();
  std::printf(
      "serve supervisor %s: %llu spawned, %llu crashed, %llu respawned\n",
      code == 0 ? "drained" : "circuit-broke",
      static_cast<unsigned long long>(stats.spawned),
      static_cast<unsigned long long>(stats.crashed),
      static_cast<unsigned long long>(stats.respawned));
  if (code != 0) {
    // Crash loop: exit with the distinguishable circuit-breaker code.
    // Crash-only exit — no fleet run report; the log is the diagnosis.
    std::fflush(stdout);
    std::_Exit(code);
  }
  if (observed) {
    // A worker that crashed and never drained leaves no report — skip it;
    // its partial counts died with it, which is the crash-only contract.
    for (int i = 0; i < processes; ++i) {
      const std::string path = WorkerReportPath(metrics_out, i);
      Result<std::string> text = json::ReadFile(path);
      if (!text.ok()) continue;
      COACHLM_ASSIGN_OR_RETURN(const json::Value report, json::Parse(*text));
      COACHLM_RETURN_NOT_OK(MergeRunReportMetrics(report));
      std::remove(path.c_str());
    }
  }
  return Status::OK();
}

Status RunServe(const Flags& flags, const PipelineRuntime* runtime,
                const std::string& metrics_out) {
  serve::ServeConfig config;
  config.port = static_cast<int>(flags.Int("port"));
  config.workers = static_cast<int>(flags.Int("serve-workers"));
  config.queue_depth = static_cast<int>(flags.Int("queue-depth"));
  config.request_deadline_ms = flags.Int("request-deadline-ms");
  config.read_timeout_ms = flags.Int("read-timeout-ms");
  config.write_timeout_ms = flags.Int("write-timeout-ms");
  config.checkpoint = flags.String("checkpoint");
  config.coach = FlagCoachConfig(flags);
  config.parse_limits = json::ParseLimits::Default();
  if (runtime != nullptr) {
    config.fault_plan = runtime->injector().plan();
    config.retry = runtime->policy();
  }
  COACHLM_RETURN_NOT_OK(config.Validate());

  const int processes = static_cast<int>(flags.Int("serve-processes"));
  if (processes > 1) return RunServeSupervised(config, processes, metrics_out);

  // The daemon deliberately opens no child spans: the root "serve" span
  // alone covers the whole resident lifetime in the run report, and
  // workers are not the driver thread anyway.
  serve::ModelHost models(config.checkpoint, config.coach);
  COACHLM_RETURN_NOT_OK(models.Load());
  serve::InstallServeSignalHandlers();
  serve::RevisionServer server(config, &models);
  COACHLM_RETURN_NOT_OK(server.StartServing());
  std::printf("serving on 127.0.0.1:%d (checkpoint %s, model version %llu); "
              "SIGTERM drains, SIGHUP reloads\n",
              server.port(), config.checkpoint.c_str(),
              static_cast<unsigned long long>(models.version()));
  std::fflush(stdout);
  // The accept loop polls the signal flags; this blocks until a drain
  // (SIGTERM/SIGINT) has been requested AND every admitted request got its
  // response. Main() then flushes the run report as for any command.
  server.AwaitDrain();
  const serve::ServerStats& stats = server.stats();
  std::printf(
      "serve drained: %llu connections, %llu ok, %llu shed, %llu client "
      "errors, %llu server errors, %llu deadline, %llu reloads (%llu "
      "rejected)\n",
      static_cast<unsigned long long>(
          stats.connections_accepted.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_ok.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_shed.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_client_error.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_server_error.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_deadline.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.reloads_ok.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.reloads_rejected.load(std::memory_order_relaxed)));
  return Status::OK();
}

/// `coachlm metrics`: prints the metric catalog (the registry's single
/// source of truth, which tools/check_docs.sh diffs against the docs), or
/// with --validate schema-checks a run report — or a JSONL bench
/// trajectory, validating each line — against ValidateRunReport.
Status RunMetrics(const Flags& flags) {
  if (!flags.Has("validate")) {
    std::printf("%s", MetricsRegistry::CatalogDump().c_str());
    return Status::OK();
  }
  const std::string path = flags.String("validate");
  COACHLM_ASSIGN_OR_RETURN(const std::string text, json::ReadFile(path));
  Result<json::Value> whole = json::Parse(text);
  if (whole.ok()) {
    COACHLM_RETURN_NOT_OK(ValidateRunReport(*whole));
    std::printf("%s: valid run report\n", path.c_str());
    return Status::OK();
  }
  // Not a single document: treat as a bench trajectory (one compact report
  // per line, as CI appends to BENCH_pipeline.json).
  size_t line_number = 0;
  size_t validated = 0;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? end : end - start);
    ++line_number;
    start = end == std::string::npos ? text.size() + 1 : end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<json::Value> parsed = json::Parse(line);
    if (!parsed.ok()) {
      return Status::ParseError(path + ":" + std::to_string(line_number) +
                                ": " + parsed.status().message());
    }
    const Status line_status = ValidateRunReport(*parsed);
    if (!line_status.ok()) {
      return Status::ParseError(path + ":" + std::to_string(line_number) +
                                ": " + line_status.message());
    }
    ++validated;
  }
  if (validated == 0) {
    return Status::ParseError(path + ": no JSON documents found");
  }
  std::printf("%s: valid trajectory (%zu reports)\n", path.c_str(), validated);
  return Status::OK();
}

/// Applies --max-record-bytes / --max-json-depth on top of the
/// environment-configured process-wide parse limits.
void ApplyParseLimitFlags(const Flags& flags) {
  if (!flags.Has("max-record-bytes") && !flags.Has("max-json-depth")) return;
  json::ParseLimits limits = json::ParseLimits::Default();
  if (flags.Has("max-record-bytes")) {
    limits.max_record_bytes =
        static_cast<size_t>(flags.Int("max-record-bytes"));
  }
  if (flags.Has("max-json-depth")) {
    limits.max_depth = static_cast<size_t>(flags.Int("max-json-depth"));
  }
  json::ParseLimits::SetProcessDefault(limits);
}

int Main(int argc, char** argv) {
  const FlagTable& table = CoachlmFlagTable();
  const Result<Flags> flags = Flags::Parse(table, argc, argv);
  const Result<std::unique_ptr<PipelineRuntime>> owned =
      flags.ok() ? MakeRuntime(*flags) : flags.status();
  if (!owned.ok() || flags->command().empty()) {
    if (!owned.ok()) {
      std::fprintf(stderr, "%s\n", owned.status().ToString().c_str());
    }
    std::fprintf(stderr, "%s", table.Usage().c_str());
    return owned.ok() ? 0 : 2;
  }
  const std::string& command = flags->command();
  ApplyParseLimitFlags(*flags);
  auto runtime = [&owned] {
    return *owned != nullptr ? owned->get() : PipelineRuntime::Default();
  };
  // Observability: when a report path is configured (flag or environment),
  // arm metrics + tracing before dispatch and write the report after —
  // even for a failed run, so operators can see where it got to.
  const std::string metrics_out =
      flags->Has("metrics-out") ? flags->String("metrics-out")
                                : GetEnvOr("COACHLM_METRICS_OUT", "");
  const bool metrics_deterministic =
      flags->Has("metrics-deterministic") ||
      GetEnvOr("COACHLM_METRICS_DETERMINISTIC", "") == "1";
  int root_span = -1;
  if (!metrics_out.empty() && command != "metrics") {
    Observability::Default().Enable(metrics_deterministic);
    FlagExec(*flags).set_collect_stats(true);
    root_span = Observability::Default().trace().BeginSpan(command);
  }
  Status status;
  if (command == "generate") status = RunGenerate(*flags, runtime());
  else if (command == "study") status = RunStudy(*flags);
  else if (command == "train") status = RunTrain(*flags);
  else if (command == "revise") status = RunRevise(*flags, runtime());
  else if (command == "rate") status = RunRate(*flags);
  else if (command == "diff") status = RunDiff(*flags);
  else if (command == "inspect") status = RunInspect(*flags);
  else if (command == "evaluate") status = RunEvaluate(*flags);
  else if (command == "pipeline") status = RunPipeline(*flags, runtime());
  else if (command == "convert") status = RunConvert(*flags);
  else if (command == "metrics") status = RunMetrics(*flags);
  else status = RunServe(*flags, owned->get(), metrics_out);  // serve
  if (root_span >= 0) {
    Observability::Default().trace().EndSpan(root_span);
    RunReportOptions options;
    options.command = command;
    options.exec = &FlagExec(*flags);
    const Status report_status = WriteRunReport(metrics_out, options);
    if (!report_status.ok()) {
      std::fprintf(stderr, "error: run report: %s\n",
                   report_status.ToString().c_str());
      if (status.ok()) return 1;
    } else {
      std::printf("wrote run report to %s\n", metrics_out.c_str());
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace coachlm

int main(int argc, char** argv) { return coachlm::Main(argc, argv); }
