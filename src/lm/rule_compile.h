#ifndef COACHLM_LM_RULE_COMPILE_H_
#define COACHLM_LM_RULE_COMPILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lm/rule_store.h"
#include "text/match_automaton.h"

namespace coachlm {
namespace lm {

/// \name Compiled rule engine
///
/// Applying a RuleStore directly would probe every learned table per pair:
/// one hash/map walk plus a full substring scan per rule, and a fresh
/// PhrasesAbove sort per family per call. Compilation hoists all of that
/// to model-load time: the rule set becomes an immutable
/// CompiledRuleSet — per-family rule vectors frozen in apply order, one
/// Aho-Corasick automaton over every searched-inside pattern, and a
/// character-class fingerprint per pattern for O(1) rejection. A
/// RuleMatcher then answers "does rule R fire on this text, and where?"
/// from one shared scan instead of per-rule string work, with the same
/// answers the direct table scan computes (tests/rule_scan_oracle.cc is
/// that scan, kept as the reference) — docs/RULE_ENGINE.md specifies the
/// equivalence contract in full.
/// @{

/// \brief One precompiled substitution: `from` is an automaton pattern,
/// `to` is the support-winning replacement (BestSubstitution), resolved
/// at compile time. Entries whose best replacement is empty are dropped —
/// a direct table scan probes them but never edits.
struct CompiledTokenSub {
  std::string from;
  std::string to;
  uint32_t pattern = 0;
};

/// \brief One precompiled phrase rule: the literal plus its automaton
/// pattern id.
struct CompiledPhrase {
  std::string text;
  uint32_t pattern = 0;
};

/// \brief An immutable rule store compiled for fast application.
///
/// Everything CoachLm's apply path reads per pair is precomputed here
/// once: family vectors in the exact order a direct table scan iterates
/// (std::map order for token_subs and fillers, PhrasesAbove order — support
/// desc, phrase asc — for the phrase tables), support gates resolved to
/// booleans, and aggregate rates copied. The automaton holds every pattern
/// searched *inside* text (token_subs froms, strip_phrases, fillers,
/// opener_removals, strip_tokens); rotation tables (closings, markers,
/// context_exemplars) are picked by index, never searched, so they compile
/// to plain vectors. Move-only; share via shared_ptr<const CompiledRuleSet>
/// — CoachLm does, so serve hot reload swaps the compiled artifact
/// atomically with the model snapshot.
class CompiledRuleSet {
 public:
  CompiledRuleSet(const RuleStore& rules, size_t min_support);

  CompiledRuleSet(const CompiledRuleSet&) = delete;
  CompiledRuleSet& operator=(const CompiledRuleSet&) = delete;
  CompiledRuleSet(CompiledRuleSet&&) = default;
  CompiledRuleSet& operator=(CompiledRuleSet&&) = default;

  /// \name Families, in apply order
  /// @{
  const std::vector<CompiledTokenSub>& token_subs() const {
    return token_subs_;
  }
  const std::vector<CompiledPhrase>& strip_phrases() const {
    return strip_phrases_;
  }
  const std::vector<CompiledPhrase>& fillers() const { return fillers_; }
  const std::vector<CompiledPhrase>& openers() const { return openers_; }
  const std::vector<CompiledPhrase>& strip_tokens() const {
    return strip_tokens_;
  }
  /// @}

  /// \name Rotation tables (indexed by an RNG draw, never searched)
  /// @{
  const std::vector<std::string>& markers() const { return markers_; }
  const std::vector<std::string>& closings() const { return closings_; }
  const std::vector<std::string>& context_exemplars() const {
    return context_exemplars_;
  }
  /// @}

  /// \name Support gates and aggregates, resolved at compile time
  /// @{
  bool capitalize() const { return capitalize_; }
  bool remove_doubled() const { return remove_doubled_; }
  bool reflow() const { return reflow_; }
  double closing_rate() const { return closing_rate_; }
  double context_add_rate() const { return context_add_rate_; }
  double rewrite_overlap_threshold() const {
    return rewrite_overlap_threshold_;
  }
  double mean_target_response_words() const {
    return mean_target_response_words_;
  }
  /// clamp(llround(mean_appended_sentences), 0, 4), precomputed.
  size_t expansion_budget() const { return expansion_budget_; }
  /// @}

  const automaton::MatchAutomaton& matcher_automaton() const {
    return *automaton_;
  }
  const std::string& pattern_text(uint32_t id) const {
    return pattern_texts_[id];
  }
  size_t num_patterns() const { return pattern_texts_.size(); }
  size_t min_support() const { return min_support_; }

 private:
  std::vector<CompiledTokenSub> token_subs_;
  std::vector<CompiledPhrase> strip_phrases_;
  std::vector<CompiledPhrase> fillers_;
  std::vector<CompiledPhrase> openers_;
  std::vector<CompiledPhrase> strip_tokens_;
  std::vector<std::string> markers_;
  std::vector<std::string> closings_;
  std::vector<std::string> context_exemplars_;
  bool capitalize_ = false;
  bool remove_doubled_ = false;
  bool reflow_ = false;
  double closing_rate_ = 0.0;
  double context_add_rate_ = 0.0;
  double rewrite_overlap_threshold_ = -1.0;
  double mean_target_response_words_ = 0.0;
  size_t expansion_budget_ = 0;
  size_t min_support_ = 0;
  std::vector<std::string> pattern_texts_;
  std::unique_ptr<const automaton::MatchAutomaton> automaton_;
};

/// \brief Per-text match oracle over a CompiledRuleSet.
///
/// Construct one per instruction/response. While the text is unmutated the
/// matcher's answers are exact and come from the fingerprint prefilter
/// plus (lazily, at most once) a single automaton pass — zero per-rule
/// string scans. The apply loop must report every edit via
/// NoteReplacement/NoteErasure; once mutated, the matcher degrades safely:
/// a pattern whose character classes cannot all occur in the mutated text
/// (original classes ∪ classes of inserted strings — erasure and
/// rearrangement mint no new classes) is still rejected in O(1), and
/// anything else falls back to a direct string probe on the current text.
/// Either way the answers equal what strings::Contains / find / StartsWith
/// would say, which is the byte-identity contract.
class RuleMatcher {
 public:
  /// \p rules must outlive the matcher. \p original is fingerprinted here
  /// but not retained.
  RuleMatcher(const CompiledRuleSet& rules, const std::string& original);

  /// Equivalent of strings::Contains(current, pattern).
  bool Contains(uint32_t pattern, const std::string& current);

  /// Equivalent of current.find(pattern) — automaton::kNotFound for npos.
  size_t FirstBegin(uint32_t pattern, const std::string& current);

  /// Equivalent of strings::StartsWith(current, pattern).
  bool StartsWith(uint32_t pattern, const std::string& current);

  /// Report an edit that inserted \p inserted (ReplaceAll's `to`, a
  /// subject, ...): its character classes join the reachable set.
  void NoteReplacement(const std::string& inserted);

  /// Report an edit that only removed or rearranged existing characters
  /// (erase, Trim, CollapseWhitespace, strip-to-empty ReplaceAll).
  void NoteErasure() { mutated_ = true; }

  /// Probes answered by the O(1) fingerprint gate alone (no automaton or
  /// string work).
  size_t prefilter_rejected() const { return prefilter_rejected_; }

 private:
  void EnsureScanned(const std::string& current);

  const CompiledRuleSet& rules_;
  automaton::ClassFingerprint original_fp_;
  /// Classes that could occur anywhere in the current text: the original's
  /// plus every inserted string's.
  uint64_t reachable_mask_ = 0;
  bool mutated_ = false;
  bool scanned_ = false;
  std::vector<size_t> first_begin_;
  size_t prefilter_rejected_ = 0;
};

/// @}

}  // namespace lm
}  // namespace coachlm

#endif  // COACHLM_LM_RULE_COMPILE_H_
