#include "quality/dimension.h"

#include <array>

namespace coachlm {
namespace quality {

const std::string& DimensionName(Dimension dimension) {
  static const std::array<std::string, 10> kNames = {
      "contextualization", "feasibility",        "instruction_readability",
      "humanization",      "richness",           "response_readability",
      "comprehensiveness", "relevance",          "correctness",
      "safety",
  };
  return kNames[static_cast<uint8_t>(dimension)];
}

DimensionLevel LevelOf(Dimension dimension) {
  switch (dimension) {
    case Dimension::kSafety:
      return DimensionLevel::kRedLine;
    case Dimension::kContextualization:
    case Dimension::kHumanization:
    case Dimension::kRichness:
      return DimensionLevel::kAdvanced;
    default:
      return DimensionLevel::kBasic;
  }
}

}  // namespace quality
}  // namespace coachlm
