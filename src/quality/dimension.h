#ifndef COACHLM_QUALITY_DIMENSION_H_
#define COACHLM_QUALITY_DIMENSION_H_

#include <cstdint>
#include <string>

namespace coachlm {
namespace quality {

/// \brief The nine evaluation dimensions of Table II.
///
/// INSTRUCTION dimensions: Contextualization (advanced), Feasibility and
/// Readability (basic). RESPONSE dimensions: Humanization and Richness
/// (advanced), Readability / Comprehensiveness / Relevance / Correctness
/// (basic), Safety (red line).
enum class Dimension : uint8_t {
  // Instruction side
  kContextualization = 0,
  kFeasibility,
  kInstructionReadability,
  // Response side
  kHumanization,
  kRichness,
  kResponseReadability,
  kComprehensiveness,
  kRelevance,
  kCorrectness,
  kSafety,
};

/// \brief Importance levels of Table II. Violations cap the final score:
/// red line <= 40, basic flaw <= 80, advanced accounts for the top 20.
enum class DimensionLevel : uint8_t {
  kRedLine = 0,
  kBasic,
  kAdvanced,
};

/// Stable display name ("contextualization").
const std::string& DimensionName(Dimension dimension);

/// The importance level of a dimension.
DimensionLevel LevelOf(Dimension dimension);

}  // namespace quality
}  // namespace coachlm

#endif  // COACHLM_QUALITY_DIMENSION_H_
