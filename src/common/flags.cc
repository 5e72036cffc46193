#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace coachlm {
namespace {

using std::string_literals::operator""s;

std::string Bounds(const FlagSpec& spec) {
  return spec.max == INT64_MAX
             ? ">= " + std::to_string(spec.min)
             : std::to_string(spec.min) + ".." + std::to_string(spec.max);
}

bool Numeric(const FlagSpec& spec) {
  return spec.kind == FlagKind::kInt || spec.kind == FlagKind::kDouble;
}

}  // namespace

std::string FlagTable::Usage() const {
  std::string out =
      "usage: " + std::string(program) + " <command> [flags]\n\ncommands:\n";
  for (const CommandSpec& command : commands) {
    std::string name = command.name;
    name.resize(std::max<size_t>(name.size(), 10), ' ');
    out += "  " + name + command.doc + "\n";
  }
  out += "\nflags ([...] lists the commands that take a flag; a flag the "
         "command does not take exits 2):\n";
  for (const FlagSpec& spec : flags) {
    out += "  --" + std::string(spec.name) + " " + spec.values + " [";
    for (size_t c = 0; c < commands.size(); ++c) {
      if ((spec.commands >> c & 1u) != 0) out += commands[c].name + " "s;
    }
    out.back() = ']';  // Every row has a command (flags_test checks).
    if (Numeric(spec)) out += " " + Bounds(spec);
    if (spec.fallback != nullptr) out += " default "s + spec.fallback;
    out += "\n      " + std::string(spec.doc) + "\n";
  }
  return out;
}

Result<Flags> Flags::Parse(const FlagTable& table, int argc,
                           const char* const* argv) {
  Flags flags;
  if (argc < 2) return flags;
  flags.command_ = argv[1];
  uint32_t bit = 0;
  for (size_t c = 0; c < table.commands.size(); ++c) {
    if (flags.command_ == table.commands[c].name) bit = 1u << c;
  }
  if (bit == 0) {
    return Status::InvalidArgument("unknown command '" + flags.command_ + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == arg.npos ? eq : eq - 2);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& row : table.flags) {
      if ((row.commands & bit) != 0 && name == row.name) spec = &row;
    }
    if (spec == nullptr) {
      return Status::InvalidArgument(flags.command_ + " does not take " + arg);
    }
    std::string text = eq == arg.npos ? "" : arg.substr(eq + 1);
    if (spec->kind == FlagKind::kSwitch && eq != arg.npos) {
      return Status::InvalidArgument("--" + name + " takes no value");
    }
    if (spec->kind != FlagKind::kSwitch && eq == arg.npos) {
      if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        return Status::InvalidArgument("--" + name + " expects a value");
      }
      text = argv[++i];
    }
    COACHLM_RETURN_NOT_OK(flags.Set(*spec, text, /*given=*/true));
  }
  for (const FlagSpec& spec : table.flags) {
    if ((spec.commands & bit) != 0 && spec.fallback != nullptr &&
        flags.values_.count(spec.name) == 0) {
      COACHLM_RETURN_NOT_OK(flags.Set(spec, spec.fallback, /*given=*/false));
    }
  }
  return flags;
}

Status Flags::Set(const FlagSpec& spec, const std::string& text, bool given) {
  Value value{text, 0, 0.0, given};
  const std::string flag = "--" + std::string(spec.name);
  char* end = nullptr;
  errno = 0;
  bool in_range = true;
  if (spec.kind == FlagKind::kInt) {
    value.number = std::strtoll(text.c_str(), &end, 10);
    in_range = value.number >= spec.min && value.number <= spec.max;
  } else if (spec.kind == FlagKind::kDouble) {
    value.real = std::strtod(text.c_str(), &end);
    // Written so that NaN fails too.
    in_range = value.real >= static_cast<double>(spec.min) &&
               value.real <= static_cast<double>(spec.max);
  }
  if (Numeric(spec) &&
      (end == text.c_str() || *end != '\0' || errno != 0 || !in_range)) {
    return Status::InvalidArgument(flag + " takes a number " + Bounds(spec) +
                                   ", got '" + text + "'");
  }
  if (spec.kind == FlagKind::kEnum) {
    const std::string choices = "|" + std::string(spec.values) + "|";
    const size_t at = choices.find("|" + text + "|");
    if (at == std::string::npos) {
      return Status::InvalidArgument(flag + " must be one of " + spec.values +
                                     " (got '" + text + "')");
    }
    value.number = std::count(choices.begin(), choices.begin() + at, '|');
  }
  if (spec.check != nullptr) COACHLM_RETURN_NOT_OK(spec.check(text));
  values_[spec.name] = std::move(value);
  return Status::OK();
}

const Flags::Value& Flags::Get(const std::string& name) const {
  static const Value kUnset;
  const auto it = values_.find(name);
  return it == values_.end() ? kUnset : it->second;
}

}  // namespace coachlm
