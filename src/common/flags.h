#ifndef COACHLM_COMMON_FLAGS_H_
#define COACHLM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace coachlm {

enum class FlagKind { kString, kInt, kDouble, kSwitch, kEnum };

/// \brief One row of a FlagTable: one flag for the commands in the
/// `commands` mask (bit i is FlagTable::commands[i]). A flag whose default
/// differs by command has one row per default.
struct FlagSpec {
  const char* name;  ///< Without the leading dashes.
  FlagKind kind;
  uint32_t commands;
  const char* fallback;  ///< The default as text; nullptr: unset if absent.
  const char* values;    ///< kEnum: the choices "a|b|c"; else a placeholder.
  const char* doc;
  int64_t min = 0;  ///< Bounds of kInt / kDouble values.
  int64_t max = INT64_MAX;
  Status (*check)(const std::string& value) = nullptr;  ///< Vets a kString.
};

struct CommandSpec {
  const char* name;
  const char* doc;
};

/// \brief A command-line tool's commands and flags, declared once: the
/// only source of parsing, validation, per-command accept sets and usage.
struct FlagTable {
  const char* program;
  std::vector<CommandSpec> commands;
  std::vector<FlagSpec> flags;

  /// The usage text, generated from the rows.
  std::string Usage() const;
};

/// \brief Typed flag values of one invocation, validated against a table.
/// Grammar: `tool <command> [--name value | --name=value | --switch]...`.
class Flags {
 public:
  /// Parses argv[1..]; no arguments parse to an empty command. An unknown
  /// command, a flag the command does not take, a value its row rejects,
  /// a switch given a value, a missing value, or a stray positional is an
  /// InvalidArgument. The command's rows fill in their defaults.
  static Result<Flags> Parse(const FlagTable& table, int argc,
                             const char* const* argv);

  /// The subcommand ("train", "revise", ...); empty when absent.
  const std::string& command() const { return command_; }

  /// True when --name was given on the command line.
  bool Has(const std::string& name) const { return Get(name).given; }

  /// The value of --name as given, else its row's default; ""/0 when it
  /// has neither or the command does not take it. Choice() is a kEnum
  /// value's index among its row's choices.
  const std::string& String(const std::string& name) const {
    return Get(name).text;
  }
  int64_t Int(const std::string& name) const { return Get(name).number; }
  double Double(const std::string& name) const { return Get(name).real; }
  size_t Choice(const std::string& name) const { return Get(name).number; }

 private:
  struct Value {
    std::string text;
    int64_t number = 0;  ///< kInt value, or kEnum choice index.
    double real = 0.0;   ///< kDouble value.
    bool given = false;
  };

  Status Set(const FlagSpec& spec, const std::string& text, bool given);
  const Value& Get(const std::string& name) const;

  std::string command_;
  std::map<std::string, Value> values_;
};

}  // namespace coachlm

#endif  // COACHLM_COMMON_FLAGS_H_
