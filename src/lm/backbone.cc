#include "lm/backbone.h"

#include <algorithm>

#include "synth/code_bank.h"
#include "synth/topic_bank.h"
#include "text/lexicons.h"
#include "text/similarity.h"
#include "text/string_util.h"

namespace coachlm {
namespace lm {

BackboneProfile Llama7B() {
  BackboneProfile profile;
  profile.name = "LLaMA-7b";
  profile.knowledge_coverage = 0.55;
  profile.fluency_noise = 0.12;
  profile.invalid_output_rate = 0.030;
  profile.pretrain_seed = 11;
  return profile;
}

BackboneProfile ChatGlm6B() {
  BackboneProfile profile;
  profile.name = "ChatGLM-6b";
  profile.knowledge_coverage = 0.75;
  profile.fluency_noise = 0.06;
  profile.invalid_output_rate = 0.018;
  profile.pretrain_seed = 12;
  return profile;
}

BackboneProfile ChatGlm26B() {
  BackboneProfile profile;
  profile.name = "ChatGLM2-6b";
  profile.knowledge_coverage = 0.90;
  profile.fluency_noise = 0.03;
  profile.invalid_output_rate = 0.013;
  profile.pretrain_seed = 13;
  return profile;
}

namespace {

/// Builds a memory document from a source text bundle, retaining each
/// sentence with probability `coverage`. The key always includes the
/// subject words (names anchor associations even for weak models).
MemoryDoc BuildDoc(const std::string& subject,
                   const std::vector<std::string>& sentences,
                   double coverage, Rng* rng) {
  MemoryDoc doc;
  std::string key_source = subject;
  for (const std::string& sentence : sentences) {
    if (rng->NextBool(coverage)) {
      doc.sentences.push_back(sentence);
      key_source += " " + sentence;
    }
  }
  const auto words = similarity::ContentWords(key_source);
  doc.key_words.assign(words.begin(), words.end());
  std::sort(doc.key_words.begin(), doc.key_words.end());
  return doc;
}

}  // namespace

BackboneModel::BackboneModel(BackboneProfile profile)
    : profile_(std::move(profile)) {
  Rng rng(profile_.pretrain_seed);
  for (const synth::Topic& topic : synth::Topics()) {
    std::vector<std::string> sentences;
    sentences.push_back(topic.fact);
    for (const std::string& detail : topic.details) {
      sentences.push_back(detail);
    }
    MemoryDoc doc = BuildDoc(topic.name + " " + topic.domain, sentences,
                             profile_.knowledge_coverage, &rng);
    if (!doc.sentences.empty()) docs_.push_back(std::move(doc));
  }
  for (const synth::CodeTask& task : synth::CodeTasks()) {
    // The code itself is part of the pre-training association key: code
    // identifiers anchor code questions to the right memory much more
    // reliably than the prose around them.
    MemoryDoc doc = BuildDoc(task.name + " " + task.description + " " +
                                 task.code + " " + task.buggy_code,
                             task.explanation,
                             profile_.knowledge_coverage, &rng);
    if (!doc.sentences.empty()) docs_.push_back(std::move(doc));
  }
  for (const MemoryDoc& doc : docs_) {
    for (const std::string& sentence : doc.sentences) {
      fluency_lm_.AddText(sentence);
    }
  }
}

double BackboneModel::DocScoreDetailed(
    size_t doc_index, const std::unordered_set<std::string>& words,
    size_t* match_count, size_t* longest_match) const {
  const MemoryDoc& doc = docs_[doc_index];
  *match_count = 0;
  *longest_match = 0;
  if (words.empty()) return 0.0;
  double total = 0.0;
  double matched = 0.0;
  // COACHLM_LINT_ALLOW(determinism-unordered-serialization): summation order is pinned by the golden determinism suite for this stdlib — the pre-hoist path iterated the same per-call set, and sorting here would change the float sums and invalidate every golden. The one set object is reused across all docs of a query, so per-doc scores stay mutually consistent.
  for (const std::string& word : words) {
    const double weight = static_cast<double>(word.size());
    total += weight;
    if (std::binary_search(doc.key_words.begin(), doc.key_words.end(),
                           word)) {
      matched += weight;
      ++*match_count;
      *longest_match = std::max(*longest_match, word.size());
    }
  }
  return total > 0.0 ? matched / total : 0.0;
}

std::vector<std::string> BackboneModel::RetrieveRelevant(
    const std::string& context, const std::string& existing,
    size_t max_sentences) const {
  constexpr double kActivationThreshold = 0.15;
  // Tokenize the query once; every document is scored against the same
  // word set (identical iteration order per doc, so identical sums).
  const auto context_words = similarity::ContentWords(context);
  double best_score = 0.0;
  size_t best_doc = docs_.size();
  bool best_activates = false;
  for (size_t i = 0; i < docs_.size(); ++i) {
    size_t count = 0;
    size_t longest = 0;
    const double score = DocScoreDetailed(i, context_words, &count, &longest);
    if (score > best_score) {
      best_score = score;
      best_doc = i;
      // Activation needs discriminative evidence: a single short
      // incidental word ("show") must not light a document up, while a
      // subject name inside a long query should — either a high relative
      // score with a long matched word, or several matched words with at
      // least one discriminative one.
      const bool discriminative = count >= 2 || longest >= 6;
      const bool absolute = count >= 2 && longest >= 5;
      best_activates =
          (score >= kActivationThreshold && discriminative) || absolute;
    }
  }
  std::vector<std::string> out;
  if (best_doc == docs_.size() || !best_activates) {
    return out;  // the model does not know this subject
  }
  // Case-insensitive presence checks: revised text often carries a
  // decapitalized copy of a memory sentence after a discourse marker.
  const std::string existing_lower = strings::Lower(existing);
  const std::string context_lower = strings::Lower(context);
  for (const std::string& sentence : docs_[best_doc].sentences) {
    if (out.size() >= max_sentences) break;
    const std::string sentence_lower = strings::Lower(sentence);
    if (strings::Contains(existing_lower, sentence_lower)) continue;
    if (strings::Contains(context_lower, sentence_lower)) continue;
    out.push_back(sentence);
  }
  return out;
}

double BackboneModel::TopicalAgreement(const std::string& a,
                                       const std::string& b) const {
  const auto words_a = similarity::ContentWords(a);
  const auto words_b = similarity::ContentWords(b);
  double best = 0.0;
  for (size_t i = 0; i < docs_.size(); ++i) {
    size_t count = 0;
    size_t longest = 0;
    const double score =
        std::min(DocScoreDetailed(i, words_a, &count, &longest),
                 DocScoreDetailed(i, words_b, &count, &longest));
    best = std::max(best, score);
  }
  return best;
}

std::string BackboneModel::ApplyFluencyNoise(const std::string& sentence,
                                             Rng* rng) const {
  if (!rng->NextBool(profile_.fluency_noise)) return sentence;
  // A weak generator slips: corrupt one known word, or decapitalize.
  std::string noisy = sentence;
  for (const auto& [good, bad] : lexicons::SpellingCorruptions()) {
    if (strings::Contains(noisy, good)) {
      noisy = strings::ReplaceAll(noisy, good, bad);
      return noisy;
    }
  }
  for (char& c : noisy) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      break;
    }
  }
  return noisy;
}

bool BackboneModel::DegeneratesThisCall(Rng* rng) const {
  return rng->NextBool(profile_.invalid_output_rate);
}

}  // namespace lm
}  // namespace coachlm
