#include "lm/rule_compile.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace coachlm {
namespace lm {

CompiledRuleSet::CompiledRuleSet(const RuleStore& rules, size_t min_support)
    : min_support_(min_support) {
  // Pattern ids are assigned in family registration order; the id is the
  // index into pattern_texts_ and the automaton alike.
  auto add_pattern = [this](const std::string& text) {
    const auto id = static_cast<uint32_t>(pattern_texts_.size());
    pattern_texts_.push_back(text);
    return id;
  };

  // token_subs, in std::map (lexicographic) order — the reference scan's
  // iteration order. The best replacement is resolved now; entries whose
  // best is empty never edit text, so they compile away.
  for (const auto& [from, targets] : rules.token_subs) {
    (void)targets;
    std::string to = rules.BestSubstitution(from, min_support);
    if (to.empty()) continue;
    CompiledTokenSub sub;
    sub.from = from;
    sub.to = std::move(to);
    sub.pattern = add_pattern(from);
    token_subs_.push_back(std::move(sub));
  }

  auto add_phrase_family = [&](const std::map<std::string, size_t>& table,
                               std::vector<CompiledPhrase>* out) {
    for (std::string& phrase : RuleStore::PhrasesAbove(table, min_support)) {
      CompiledPhrase compiled;
      compiled.pattern = add_pattern(phrase);
      compiled.text = std::move(phrase);
      out->push_back(std::move(compiled));
    }
  };
  add_phrase_family(rules.strip_phrases, &strip_phrases_);

  // Fillers, in map order; only phrases replaced with *varying* content
  // (>= 2 distinct replacements) mean "substitute the subject".
  for (const auto& [filler, replacements] : rules.filler_replacements) {
    if (replacements.size() < 2) continue;
    CompiledPhrase compiled;
    compiled.text = filler;
    compiled.pattern = add_pattern(filler);
    fillers_.push_back(std::move(compiled));
  }

  add_phrase_family(rules.opener_removals, &openers_);
  add_phrase_family(rules.strip_tokens, &strip_tokens_);

  markers_ = RuleStore::PhrasesAbove(rules.markers, min_support);
  closings_ = RuleStore::PhrasesAbove(rules.closings, min_support);
  context_exemplars_ =
      RuleStore::PhrasesAbove(rules.context_exemplars, min_support);

  capitalize_ = rules.capitalize_support >= min_support;
  remove_doubled_ = rules.doubled_removal_support >= min_support;
  reflow_ = rules.reflow_support >= min_support;
  closing_rate_ = rules.closing_rate;
  context_add_rate_ = rules.context_add_rate;
  rewrite_overlap_threshold_ = rules.rewrite_overlap_threshold;
  mean_target_response_words_ = rules.mean_target_response_words;
  expansion_budget_ = static_cast<size_t>(
      std::clamp(std::llround(rules.mean_appended_sentences), 0LL, 4LL));

  automaton_ =
      std::make_unique<const automaton::MatchAutomaton>(pattern_texts_);
}

RuleMatcher::RuleMatcher(const CompiledRuleSet& rules,
                         const std::string& original)
    : rules_(rules), original_fp_(automaton::FingerprintOf(original)) {
  reachable_mask_ = original_fp_.mask;
}

void RuleMatcher::NoteReplacement(const std::string& inserted) {
  mutated_ = true;
  reachable_mask_ |= automaton::FingerprintOf(inserted).mask;
}

void RuleMatcher::EnsureScanned(const std::string& current) {
  if (scanned_) return;
  rules_.matcher_automaton().Scan(current, &first_begin_);
  scanned_ = true;
}

size_t RuleMatcher::FirstBegin(uint32_t pattern, const std::string& current) {
  // An empty needle matches at 0 (std::string::find semantics); the
  // automaton reports it as absent, so answer before consulting it. The
  // trainer never learns empty phrases — this is belt and braces.
  if (rules_.matcher_automaton().pattern_length(pattern) == 0) return 0;
  const automaton::ClassFingerprint& needle =
      rules_.matcher_automaton().fingerprint(pattern);
  if (!mutated_) {
    // Exact: the text is still the fingerprinted/scanned original.
    if (!original_fp_.Covers(needle)) {
      ++prefilter_rejected_;
      return automaton::kNotFound;
    }
    EnsureScanned(current);
    return first_begin_[pattern];
  }
  // Mutated: counts are unsound (ReplaceAll multiplies, erase subtracts)
  // but the class *mask* can only grow through inserted strings, which
  // NoteReplacement folded in — a pattern needing an unreachable class
  // still cannot occur.
  if (!automaton::ClassFingerprint{reachable_mask_, {}}.MaskCovers(needle)) {
    ++prefilter_rejected_;
    return automaton::kNotFound;
  }
  const size_t at = current.find(rules_.pattern_text(pattern));
  return at == std::string::npos ? automaton::kNotFound : at;
}

bool RuleMatcher::Contains(uint32_t pattern, const std::string& current) {
  return FirstBegin(pattern, current) != automaton::kNotFound;
}

bool RuleMatcher::StartsWith(uint32_t pattern, const std::string& current) {
  if (rules_.matcher_automaton().pattern_length(pattern) == 0) return true;
  const automaton::ClassFingerprint& needle =
      rules_.matcher_automaton().fingerprint(pattern);
  if (!mutated_) {
    if (!original_fp_.Covers(needle)) {
      ++prefilter_rejected_;
      return false;
    }
    EnsureScanned(current);
    // The first occurrence is the leftmost one, so "starts with" is
    // exactly "first occurrence begins at 0".
    return first_begin_[pattern] == 0;
  }
  if (!automaton::ClassFingerprint{reachable_mask_, {}}.MaskCovers(needle)) {
    ++prefilter_rejected_;
    return false;
  }
  return current.compare(0, rules_.pattern_text(pattern).size(),
                         rules_.pattern_text(pattern)) == 0;
}

}  // namespace lm
}  // namespace coachlm
