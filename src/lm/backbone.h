#ifndef COACHLM_LM_BACKBONE_H_
#define COACHLM_LM_BACKBONE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "text/ngram_lm.h"

namespace coachlm {
namespace lm {

/// \brief Capability profile of a backbone LLM (Section III-E).
///
/// In the paper CoachLM is LoRA-tuned from LLaMA / ChatGLM / ChatGLM2; the
/// backbone contributes pre-trained knowledge and generation fluency, while
/// coach tuning contributes alignment with the expert revision behaviour.
/// The profile models exactly those two contributions:
///  - `knowledge_coverage`: the fraction of world knowledge (the topic and
///    code banks) retained in the backbone's pre-training memory;
///  - `fluency_noise`: the probability that a generated sentence carries a
///    language slip (weaker backbones write worse text);
///  - `invalid_output_rate`: the chance an inference degenerates into an
///    invalid output (handled by the post-processor, Section III-B1).
struct BackboneProfile {
  std::string name;
  double knowledge_coverage = 0.8;
  double fluency_noise = 0.05;
  double invalid_output_rate = 0.013;
  /// Seed offsetting which memory subset this backbone retained.
  uint64_t pretrain_seed = 7;
};

/// The paper's three open-source backbones (Table XI).
BackboneProfile Llama7B();
BackboneProfile ChatGlm6B();
BackboneProfile ChatGlm26B();

/// \brief One "document" of pre-training memory: the sentences retained
/// about a subject plus the association key (all content words that
/// co-occurred with the subject during pre-training).
struct MemoryDoc {
  std::vector<std::string> sentences;
  /// Lower-cased content words of the whole source document, weighted by
  /// length (longer words are rarer and more discriminative).
  std::vector<std::string> key_words;
};

/// \brief A backbone LLM: associative pre-training memory plus fluency.
///
/// The memory is a per-subject document store built from the
/// world-knowledge banks, with each document's sentences subsampled at
/// `knowledge_coverage`. Retrieval is associative: a query activates the
/// document whose key best covers the query's content words, standing in
/// for conditional generation of topical content (the model "remembers"
/// what co-occurred with the queried subject during pre-training). The
/// n-gram LM trained on the same memory provides fluency scoring.
class BackboneModel {
 public:
  explicit BackboneModel(BackboneProfile profile);

  /// Length-weighted fraction of the query's content \p words covered by
  /// doc \p doc_index's association key, in [0, 1], plus match
  /// diagnostics: how many content words matched and the longest match
  /// (discriminative single words like a topic name are long; incidental
  /// matches like "show" are short). The retrieval loops score one query
  /// against *every* document, so they tokenize once with
  /// similarity::ContentWords and reuse the set across docs — the same set
  /// object visits words in the same order for every doc, keeping the
  /// floating-point sums (and therefore every downstream byte) identical.
  double DocScoreDetailed(size_t doc_index,
                          const std::unordered_set<std::string>& words,
                          size_t* match_count, size_t* longest_match) const;

  /// Retrieves up to \p max_sentences unused sentences from the document
  /// best matching \p context (skipping sentences already in \p existing
  /// or \p context). Returns nothing when no document clears the
  /// activation threshold — the model simply lacks the knowledge.
  std::vector<std::string> RetrieveRelevant(const std::string& context,
                                            const std::string& existing,
                                            size_t max_sentences) const;

  /// Associative relatedness of two texts: the strongest document that
  /// both texts activate, max_i min(score_i(a), score_i(b)). High when a
  /// question and an answer are about the same remembered subject.
  double TopicalAgreement(const std::string& a, const std::string& b) const;

  /// Applies the backbone's fluency noise to a sentence: with probability
  /// `fluency_noise` a language slip is introduced.
  std::string ApplyFluencyNoise(const std::string& sentence, Rng* rng) const;

  /// True when this inference degenerates (invalid output).
  bool DegeneratesThisCall(Rng* rng) const;

  const BackboneProfile& profile() const { return profile_; }
  const NgramLm& fluency_lm() const { return fluency_lm_; }
  size_t num_docs() const { return docs_.size(); }

 private:
  BackboneProfile profile_;
  std::vector<MemoryDoc> docs_;
  NgramLm fluency_lm_;
};

}  // namespace lm
}  // namespace coachlm

#endif  // COACHLM_LM_BACKBONE_H_
