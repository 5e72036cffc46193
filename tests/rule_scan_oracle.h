#ifndef COACHLM_TESTS_RULE_SCAN_ORACLE_H_
#define COACHLM_TESTS_RULE_SCAN_ORACLE_H_

// Reference oracle for the compiled rule engine: instruction revision and
// response repair applied by scanning the RuleStore's tables directly —
// one substring probe per rule and a fresh PhrasesAbove sort per family
// per call. Slow and obviously faithful to the learned tables;
// rule_compile_test checks coach::ApplyInstructionRules and
// coach::ApplyResponseRules against it text by text.

#include <cstddef>
#include <string>

#include "common/rng.h"
#include "data/instruction_pair.h"
#include "lm/rule_store.h"

namespace coachlm {
namespace testfix {

/// Edits made per searched rule family (a rule that matched and changed
/// the text), summed over every call that was handed this tally.
struct ScanFires {
  size_t token_subs = 0;
  size_t strip_phrases = 0;
  size_t fillers = 0;
  size_t openers = 0;
  size_t strip_tokens = 0;
};

/// The scan form of coach::ApplyInstructionRules.
std::string ScanInstructionRules(const lm::RuleStore& rules,
                                 size_t min_support,
                                 const InstructionPair& pair, Rng* rng,
                                 ScanFires* fires);

/// The scan form of coach::ApplyResponseRules.
void ScanResponseRules(const lm::RuleStore& rules, size_t min_support,
                       std::string* text, ScanFires* fires);

}  // namespace testfix
}  // namespace coachlm

#endif  // COACHLM_TESTS_RULE_SCAN_ORACLE_H_
