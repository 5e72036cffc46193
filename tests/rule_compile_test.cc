// Compiled-rule-engine contract: the CompiledRuleSet freezes exactly the
// tables a direct scan derives per call, the RuleMatcher answers exactly
// what strings::Contains / find / StartsWith would, and — the acceptance
// gate — rule application through the compiled engine is byte-identical,
// RNG draws included, to the scan oracle (rule_scan_oracle.h) over the
// golden corpora at every seed.

#include "lm/rule_compile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/execution.h"
#include "common/rng.h"
#include "determinism_fixture.h"
#include "expert/pipeline.h"
#include "rule_scan_oracle.h"
#include "synth/generator.h"

namespace coachlm {
namespace lm {
namespace {

RuleStore PopulatedStore() {
  RuleStore store;
  store.token_subs["teh"]["the"] = 12;
  store.token_subs["teh"]["then"] = 1;
  store.token_subs["recieve"]["receive"] = 3;
  store.token_subs["hopeless"]["x"] = 1;  // below support: compiles away
  store.capitalize_support = 5;
  store.doubled_removal_support = 2;
  store.reflow_support = 7;
  store.strip_tokens["OUTPUT:"] = 4;
  store.opener_removals["As an AI language model,"] = 6;
  store.closings["Hope this helps!"] = 9;
  store.closings["Rare closing."] = 1;
  store.markers["For example,"] = 11;
  store.context_exemplars["Keep the answer under 200 words."] = 3;
  store.strip_phrases["in zero words"] = 2;
  store.strip_phrases["without using words"] = 2;  // equal support: tie
  store.filler_replacements["the thing"] = {"gravity", "chess"};
  store.filler_replacements["one-shot"] = {"once"};  // < 2: compiles away
  store.train_pairs = 100;
  store.mean_appended_sentences = 2.5;
  store.mean_target_response_words = 120.0;
  store.closing_rate = 0.8;
  store.context_add_rate = 0.1;
  store.rewrite_rate = 0.3;
  store.rewrite_overlap_threshold = 0.12;
  return store;
}

TEST(CompiledRuleSetTest, FamiliesMatchScanDerivation) {
  const RuleStore store = PopulatedStore();
  const CompiledRuleSet compiled(store, /*min_support=*/2);

  // token_subs: map order, best replacement resolved, sub-support dropped.
  ASSERT_EQ(compiled.token_subs().size(), 2u);
  EXPECT_EQ(compiled.token_subs()[0].from, "recieve");
  EXPECT_EQ(compiled.token_subs()[0].to, "receive");
  EXPECT_EQ(compiled.token_subs()[1].from, "teh");
  EXPECT_EQ(compiled.token_subs()[1].to, "the");

  // strip_phrases: PhrasesAbove order — equal support ties lexicographic.
  ASSERT_EQ(compiled.strip_phrases().size(), 2u);
  EXPECT_EQ(compiled.strip_phrases()[0].text, "in zero words");
  EXPECT_EQ(compiled.strip_phrases()[1].text, "without using words");

  // fillers: only phrases with >= 2 distinct replacements.
  ASSERT_EQ(compiled.fillers().size(), 1u);
  EXPECT_EQ(compiled.fillers()[0].text, "the thing");

  ASSERT_EQ(compiled.openers().size(), 1u);
  EXPECT_EQ(compiled.openers()[0].text, "As an AI language model,");
  ASSERT_EQ(compiled.strip_tokens().size(), 1u);
  EXPECT_EQ(compiled.strip_tokens()[0].text, "OUTPUT:");

  // Rotation tables and gates.
  EXPECT_EQ(compiled.closings(),
            RuleStore::PhrasesAbove(store.closings, 2));
  EXPECT_EQ(compiled.markers(), RuleStore::PhrasesAbove(store.markers, 2));
  EXPECT_TRUE(compiled.capitalize());
  EXPECT_TRUE(compiled.remove_doubled());
  EXPECT_TRUE(compiled.reflow());
  EXPECT_DOUBLE_EQ(compiled.closing_rate(), 0.8);
  EXPECT_EQ(compiled.expansion_budget(), 3u);  // llround(2.5) = 3

  // One automaton pattern per searched-inside rule.
  EXPECT_EQ(compiled.num_patterns(), 2u + 2u + 1u + 1u + 1u);
  EXPECT_GT(compiled.matcher_automaton().num_states(), 1u);
}

TEST(CompiledRuleSetTest, HighSupportThresholdCompilesEmptyFamilies) {
  const CompiledRuleSet compiled(PopulatedStore(), /*min_support=*/100);
  EXPECT_TRUE(compiled.token_subs().empty());
  EXPECT_TRUE(compiled.strip_phrases().empty());
  EXPECT_TRUE(compiled.openers().empty());
  EXPECT_TRUE(compiled.strip_tokens().empty());
  EXPECT_TRUE(compiled.closings().empty());
  EXPECT_FALSE(compiled.capitalize());
  // Fillers are not support-gated on a direct scan either.
  EXPECT_EQ(compiled.fillers().size(), 1u);
}

TEST(CompiledRuleSetTest, EmptyStoreCompiles) {
  const CompiledRuleSet compiled(RuleStore(), /*min_support=*/2);
  EXPECT_EQ(compiled.num_patterns(), 0u);
  EXPECT_TRUE(compiled.token_subs().empty());
  RuleMatcher matcher(compiled, "some text");
  // No patterns to probe; constructing and noting edits must be safe.
  matcher.NoteReplacement("abc");
}

TEST(RuleMatcherTest, ExactAnswersWhileUnmutated) {
  const CompiledRuleSet compiled(PopulatedStore(), /*min_support=*/2);
  const uint32_t teh = compiled.token_subs()[1].pattern;
  const uint32_t opener = compiled.openers()[0].pattern;

  const std::string text = "As an AI language model, I saw teh cat.";
  RuleMatcher matcher(compiled, text);
  EXPECT_TRUE(matcher.Contains(teh, text));
  EXPECT_EQ(matcher.FirstBegin(teh, text), text.find("teh"));
  EXPECT_TRUE(matcher.StartsWith(opener, text));

  const std::string elsewhere = "text with As an AI language model, inside";
  RuleMatcher matcher2(compiled, elsewhere);
  EXPECT_FALSE(matcher2.StartsWith(opener, elsewhere));
  EXPECT_FALSE(matcher2.Contains(teh, elsewhere));
}

TEST(RuleMatcherTest, PrefilterRejectsWithoutStringWork) {
  const CompiledRuleSet compiled(PopulatedStore(), /*min_support=*/2);
  const uint32_t output_token = compiled.strip_tokens()[0].pattern;
  // "OUTPUT:" needs uppercase letters and ':' — absent here, so the
  // fingerprint alone answers.
  const std::string text = "all lowercase words only";
  RuleMatcher matcher(compiled, text);
  EXPECT_FALSE(matcher.Contains(output_token, text));
  EXPECT_EQ(matcher.prefilter_rejected(), 1u);
}

TEST(RuleMatcherTest, MutationDegradesToDirectProbes) {
  const CompiledRuleSet compiled(PopulatedStore(), /*min_support=*/2);
  const uint32_t teh = compiled.token_subs()[1].pattern;
  const uint32_t recieve = compiled.token_subs()[0].pattern;

  std::string text = "no match for t-e-h here, and no receipt misspelling";
  RuleMatcher matcher(compiled, text);
  EXPECT_FALSE(matcher.Contains(teh, text));
  // A replacement can mint new matches; the matcher must see them.
  text = "now teh appeared";
  matcher.NoteReplacement("teh");
  EXPECT_TRUE(matcher.Contains(teh, text));
  // Still absent — and answered through the conservative path.
  EXPECT_FALSE(matcher.Contains(recieve, text));
}

TEST(RuleMatcherTest, ErasureCannotMintClasses) {
  const CompiledRuleSet compiled(PopulatedStore(), /*min_support=*/2);
  const uint32_t output_token = compiled.strip_tokens()[0].pattern;
  std::string text = "lowercase before mutation";
  RuleMatcher matcher(compiled, text);
  matcher.NoteErasure();
  const size_t rejected_before = matcher.prefilter_rejected();
  // "OUTPUT:"'s classes were never reachable: still an O(1) rejection
  // even after the mutation.
  EXPECT_FALSE(matcher.Contains(output_token, text));
  EXPECT_EQ(matcher.prefilter_rejected(), rejected_before + 1);
}

/// How many raw draws took \p start to \p end: the first k for which \p
/// start advanced k times continues exactly like \p end. -1 when no k in
/// range matches.
int DrawsBetween(Rng start, const Rng& end) {
  for (int k = 0; k <= 64; ++k) {
    Rng ahead = start;
    Rng probe = end;
    bool same = true;
    for (int i = 0; i < 4 && same; ++i) same = ahead.Next() == probe.Next();
    if (same) return k;
    (void)start.Next();  // A raw 64-bit draw: nothing to handle.
  }
  return -1;
}

/// Runs every pair's instruction through the instruction rules and every
/// output through the response repairs — including outputs the rewrite
/// branch would replace in a real revision — on both the compiled engine
/// and the scan oracle, at each seed's per-pair RNG stream. The texts and
/// the number of RNG draws must match. The comparison is only as strong as
/// its inputs, so every searched family that holds a rule able to fire
/// (non-empty after support gating) must edit at least one compared text.
void ExpectOracleAgreement(const coach::CoachLm& model,
                           const InstructionDataset& corpus) {
  ASSERT_NE(model.compiled_rules(), nullptr);
  const CompiledRuleSet& compiled = *model.compiled_rules();
  const RuleStore& store = model.rules();
  const size_t min_support = model.config().min_rule_support;
  testfix::ScanFires fires;
  for (const uint64_t seed : {23ULL, 7ULL, 20260809ULL}) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      const InstructionPair& pair = corpus[i];
      const Rng start = DeriveRng(seed, pair.id);
      Rng scan_rng = start;
      Rng compiled_rng = start;
      EXPECT_EQ(coach::ApplyInstructionRules(compiled, pair, &compiled_rng),
                testfix::ScanInstructionRules(store, min_support, pair,
                                              &scan_rng, &fires))
          << "seed " << seed << " pair " << i;
      const int scan_draws = DrawsBetween(start, scan_rng);
      EXPECT_GE(scan_draws, 0) << "seed " << seed << " pair " << i;
      EXPECT_EQ(DrawsBetween(start, compiled_rng), scan_draws)
          << "seed " << seed << " pair " << i;

      std::string scan_text = pair.output;
      std::string compiled_text = pair.output;
      testfix::ScanResponseRules(store, min_support, &scan_text, &fires);
      coach::ApplyResponseRules(compiled, &compiled_text);
      EXPECT_EQ(compiled_text, scan_text) << "seed " << seed << " pair " << i;
    }
  }
  EXPECT_TRUE(compiled.token_subs().empty() || fires.token_subs > 0);
  EXPECT_TRUE(compiled.strip_phrases().empty() || fires.strip_phrases > 0);
  EXPECT_TRUE(compiled.fillers().empty() || fires.fillers > 0);
  EXPECT_TRUE(compiled.openers().empty() || fires.openers > 0);
  EXPECT_TRUE(compiled.strip_tokens().empty() || fires.strip_tokens > 0);
}

/// The acceptance gate: the compiled engine against the scan oracle.
TEST(RuleEngineEquivalenceTest, FixtureCorpusMatchesScanOracle) {
  coach::CoachConfig config;
  config.alpha = 1.0;
  ExpectOracleAgreement(
      coach::CoachTrainer(config).Train(testfix::FixtureRevisions()),
      testfix::FixtureCorpus());
}

TEST(RuleEngineEquivalenceTest, SyntheticCorpusMatchesScanOracle) {
  // A trained-for-real rule store over a generated corpus: the same
  // pipeline the end-to-end golden uses.
  synth::CorpusConfig corpus_config;
  corpus_config.size = 600;
  corpus_config.seed = 42;
  synth::SynthCorpusGenerator generator(corpus_config);
  const synth::SynthCorpus corpus = generator.Generate();
  expert::RevisionStudyConfig study_config;
  study_config.sample_size = 250;
  const auto study = expert::RunRevisionStudy(corpus.dataset,
                                              generator.engine(),
                                              study_config);
  coach::CoachConfig config;
  config.alpha = 0.3;
  ExpectOracleAgreement(coach::CoachTrainer(config).Train(study.revisions),
                        corpus.dataset);
}

TEST(RuleEngineEquivalenceTest, HandBuiltStoreMatchesScanOracle) {
  // The trained stores above learn no fillers, openers or strip tokens;
  // this store holds every family, and the inputs trip each of them,
  // including edits that shift or create later matches.
  RuleStore store = PopulatedStore();
  store.token_subs["thru"]["through"] = 3;  // Changes the text's length.
  store.opener_removals["Sure,"] = 3;  // Only the first opener is removed.
  InstructionDataset corpus = testfix::FixtureCorpus();
  corpus.Add(testfix::MakePair(
      7, "explain the thing in zero words. teh end.", "",
      "As an AI language model, OUTPUT: recieve teh answer. the the sun "
      "- rises - sets"));
  corpus.Add(testfix::MakePair(
      8, "Describe the thing without using words", "Gravity pulls masses.",
      "OUTPUT:OUTPUT: teh"));
  corpus.Add(testfix::MakePair(9, "Summarize teh thing.", "", ""));
  corpus.Add(testfix::MakePair(
      10, "Résumé: teh thing in zero words in zero words", "",
      "Certainly! Here is teh answer. 1. first 2. second"));
  corpus.Add(testfix::MakePair(
      11, "go thru the thing in zero words", "Chess is old.",
      "As an AI language model, Sure, thru OUTPUT: it"));
  // Twelve words or more: no context coin is drawn.
  corpus.Add(testfix::MakePair(
      12, "Write a long and careful essay about the thing and its many "
          "uses in teh modern world",
      "", "Sure, the essay follows."));
  ExpectOracleAgreement(coach::CoachLm(coach::CoachConfig(), store), corpus);
}

}  // namespace
}  // namespace lm
}  // namespace coachlm
