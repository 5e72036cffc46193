#include "rule_scan_oracle.h"

#include "coach/coach_lm.h"
#include "lm/rule_extractor.h"
#include "text/repair.h"
#include "text/string_util.h"

namespace coachlm {
namespace testfix {
namespace {

/// A random pick from the table's entries above \p min_support; the RNG
/// is drawn only when one qualifies.
std::string RotatingPhrase(const std::map<std::string, size_t>& table,
                           size_t min_support, Rng* rng) {
  const auto phrases = lm::RuleStore::PhrasesAbove(table, min_support);
  if (phrases.empty()) return "";
  return phrases[rng->NextBelow(phrases.size())];
}

}  // namespace

std::string ScanInstructionRules(const lm::RuleStore& rules,
                                 size_t min_support,
                                 const InstructionPair& pair, Rng* rng,
                                 ScanFires* fires) {
  std::string text = pair.instruction;
  for (const auto& [from, targets] : rules.token_subs) {
    if (!strings::Contains(text, from)) continue;
    const std::string to = rules.BestSubstitution(from, min_support);
    if (to.empty()) continue;
    text = strings::ReplaceAll(text, from, to);
    ++fires->token_subs;
  }
  for (const std::string& phrase :
       lm::RuleStore::PhrasesAbove(rules.strip_phrases, min_support)) {
    const size_t at = text.find(phrase);
    if (at == std::string::npos) continue;
    text.erase(at, phrase.size());
    text = strings::CollapseWhitespace(text);
    ++fires->strip_phrases;
  }
  for (const auto& [filler, replacements] : rules.filler_replacements) {
    if (replacements.size() < 2) continue;
    if (!strings::Contains(text, filler)) continue;
    const std::string subject = coach::GuessSubject(pair);
    if (subject.empty()) continue;
    text = strings::ReplaceAll(text, filler, subject);
    ++fires->fillers;
  }
  if (rules.capitalize_support >= min_support) {
    text = repair::CapitalizeSentences(text);
  }
  if (strings::CountWords(text) < 12 &&
      rng->NextBool(rules.context_add_rate)) {
    const std::string scaffold =
        RotatingPhrase(rules.context_exemplars, min_support, rng);
    if (!scaffold.empty()) text += " " + scaffold;
  }
  return strings::Trim(text);
}

void ScanResponseRules(const lm::RuleStore& rules, size_t min_support,
                       std::string* text_out, ScanFires* fires) {
  std::string& text = *text_out;
  for (const auto& [from, targets] : rules.token_subs) {
    if (!strings::Contains(text, from)) continue;
    const std::string to = rules.BestSubstitution(from, min_support);
    if (to.empty()) continue;
    text = strings::ReplaceAll(text, from, to);
    ++fires->token_subs;
  }
  for (const std::string& opener :
       lm::RuleStore::PhrasesAbove(rules.opener_removals, min_support)) {
    if (strings::StartsWith(text, opener)) {
      text = strings::Trim(text.substr(opener.size()));
      ++fires->openers;
      break;
    }
  }
  if (rules.closing_rate > 0.3) {
    const size_t opener_len = lm::MechanicalOpenerLength(text);
    if (opener_len > 0) {
      text = strings::Trim(text.substr(opener_len));
    }
  }
  for (const std::string& token :
       lm::RuleStore::PhrasesAbove(rules.strip_tokens, min_support)) {
    if (strings::Contains(text, token)) {
      text = strings::Trim(strings::ReplaceAll(text, token, ""));
      ++fires->strip_tokens;
    }
  }
  if (rules.reflow_support >= min_support &&
      !strings::Contains(text, "\n")) {
    if (strings::Contains(text, " - ") || strings::Contains(text, " 2. ")) {
      text = repair::ReflowLists(text);
    }
    text = repair::CollapseSpaces(text);
  }
  if (rules.doubled_removal_support >= min_support &&
      !strings::Contains(text, "\n")) {
    text = repair::RemoveDoubledWords(text);
  }
  if (rules.capitalize_support >= min_support) {
    text = repair::CapitalizeSentences(text);
  }
}

}  // namespace testfix
}  // namespace coachlm
