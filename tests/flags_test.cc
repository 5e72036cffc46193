#include "common/flags.h"

#include <gtest/gtest.h>

#include <set>

#include "coachlm_flags.h"

namespace coachlm {
namespace {

// Commands "train" (bit 0) and "rate" (bit 1).
const FlagTable& TestTable() {
  static const FlagTable table{
      "tool",
      {{"train", ""}, {"rate", ""}},
      {
          {"alpha", FlagKind::kDouble, 1, "0.3", "A", "", 0, 1},
          {"out", FlagKind::kString, 3, nullptr, "FILE", ""},
          {"threads", FlagKind::kInt, 3, nullptr, "T", "", 1, 1024},
          {"seed", FlagKind::kInt, 1, "42", "S", ""},
          {"seed", FlagKind::kInt, 2, "17", "S", ""},
          {"verify", FlagKind::kSwitch, 1, nullptr, "", ""},
          {"resume", FlagKind::kSwitch, 2, nullptr, "", ""},
          {"mode", FlagKind::kEnum, 1, "b", "a|b|c", ""},
      }};
  return table;
}

Result<Flags> ParseArgs(std::vector<const char*> argv,
                        const FlagTable& table = TestTable()) {
  argv.insert(argv.begin(), "tool");
  return Flags::Parse(table, static_cast<int>(argv.size()), argv.data());
}

void ExpectRejected(std::vector<const char*> argv,
                    const FlagTable& table = TestTable()) {
  const Result<Flags> flags = ParseArgs(argv, table);
  std::string joined;
  for (const char* arg : argv) joined += std::string(arg) + " ";
  ASSERT_FALSE(flags.ok()) << joined;
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument) << joined;
}

TEST(FlagsTest, CommandAndTypedValues) {
  auto flags = ParseArgs({"train", "--alpha", "0.5", "--out=x.json",
                          "--threads", "4", "--mode", "c"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->command(), "train");
  EXPECT_DOUBLE_EQ(flags->Double("alpha"), 0.5);
  EXPECT_EQ(flags->String("out"), "x.json");
  EXPECT_EQ(flags->Int("threads"), 4);
  EXPECT_EQ(flags->Choice("mode"), 2u);
  EXPECT_EQ(flags->String("mode"), "c");
}

TEST(FlagsTest, DefaultsComeFromTheCommandsRow) {
  auto train = ParseArgs({"train"});
  ASSERT_TRUE(train.ok());
  EXPECT_EQ(train->Int("seed"), 42);
  EXPECT_DOUBLE_EQ(train->Double("alpha"), 0.3);
  EXPECT_EQ(train->Choice("mode"), 1u);
  EXPECT_FALSE(train->Has("alpha"));
  EXPECT_FALSE(train->Has("threads"));
  EXPECT_EQ(train->Int("threads"), 0);
  EXPECT_EQ(train->String("out"), "");
  auto rate = ParseArgs({"rate"});
  ASSERT_TRUE(rate.ok());
  EXPECT_EQ(rate->Int("seed"), 17);
}

TEST(FlagsTest, SwitchesHaveNoValue) {
  auto flags = ParseArgs({"train", "--verify", "--threads", "4"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("verify"));
  EXPECT_EQ(flags->Int("threads"), 4);
  ExpectRejected({"train", "--verify=yes"});
  // A switch never swallows the next token: it is a stray positional.
  ExpectRejected({"rate", "--out", "c.json", "--resume", "extra.json"});
}

TEST(FlagsTest, StrayPositionalRejected) {
  ExpectRejected({"rate", "a.json"});
  ExpectRejected({"rate", "--out", "a.json", "b.json"});
}

TEST(FlagsTest, UnknownFlagFailsFast) {
  auto flags = ParseArgs({"train", "--alhpa", "0.3"});
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("alhpa"), std::string::npos);
}

TEST(FlagsTest, FlagOfAnotherCommandRejected) {
  ExpectRejected({"rate", "--alpha", "0.3"});
  ExpectRejected({"rate", "--verify"});
  ExpectRejected({"train", "--resume"});
}

TEST(FlagsTest, UnknownCommandRejected) {
  ExpectRejected({"bogus"});
  ExpectRejected({"--alpha", "0.3"});
}

TEST(FlagsTest, StrictRejectionOfBadValues) {
  for (const char* bad : {"notanumber", "7", "-3", "0.3x", "", "nan"}) {
    ExpectRejected({"train", "--alpha", bad});
  }
  for (const char* bad : {"0", "1025", "3x", "1.5", "", "banana",
                          "99999999999999999999"}) {
    ExpectRejected({"train", "--threads", bad});
  }
  ExpectRejected({"train", "--seed", "-1"});
  ExpectRejected({"train", "--mode", "d"});
  ExpectRejected({"train", "--out"});
  ExpectRejected({"train", "--out", "--verify"});
}

TEST(FlagsTest, EmptyArgvIsValid) {
  const char* argv[] = {"tool"};
  auto flags = Flags::Parse(TestTable(), 1, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->command().empty());
}

// --- The coachlm table itself -------------------------------------------

/// Every distinct flag name in the table, with the kind of its rows.
std::map<std::string, FlagKind> FlagNames(const FlagTable& table) {
  std::map<std::string, FlagKind> names;
  for (const FlagSpec& spec : table.flags) names[spec.name] = spec.kind;
  return names;
}

/// The first command whose bit is set in \p mask.
const char* FirstCommand(const FlagTable& table, uint32_t mask) {
  for (size_t c = 0; c < table.commands.size(); ++c) {
    if ((mask >> c & 1u) != 0) return table.commands[c].name;
  }
  return "";
}

TEST(CoachlmFlagTableTest, RowsAreWellFormed) {
  const FlagTable& table = CoachlmFlagTable();
  std::set<std::pair<size_t, std::string>> seen;
  for (const FlagSpec& spec : table.flags) {
    EXPECT_NE(spec.commands, 0u) << spec.name;
    EXPECT_EQ(spec.commands >> table.commands.size(), 0u) << spec.name;
    EXPECT_EQ(FlagNames(table).at(spec.name), spec.kind) << spec.name;
    for (size_t c = 0; c < table.commands.size(); ++c) {
      if ((spec.commands >> c & 1u) == 0) continue;
      EXPECT_TRUE(seen.emplace(c, spec.name).second)
          << "two --" << spec.name << " rows for "
          << table.commands[c].name;
    }
    EXPECT_NE(table.Usage().find("--" + std::string(spec.name)),
              std::string::npos);
  }
}

TEST(CoachlmFlagTableTest, EveryCommandParsesWithItsDefaults) {
  for (const CommandSpec& command : CoachlmFlagTable().commands) {
    const Result<Flags> flags = ParseArgs({command.name}, CoachlmFlagTable());
    EXPECT_TRUE(flags.ok()) << command.name << ": "
                            << flags.status().ToString();
  }
}

TEST(CoachlmFlagTableTest, EveryFlagACommandDoesNotTakeIsRejected) {
  const FlagTable& table = CoachlmFlagTable();
  size_t rejected = 0;
  for (size_t c = 0; c < table.commands.size(); ++c) {
    for (const auto& [name, kind] : FlagNames(table)) {
      bool taken = false;
      for (const FlagSpec& spec : table.flags) {
        taken = taken || ((spec.commands >> c & 1u) != 0 && name == spec.name);
      }
      if (taken) continue;
      const std::string flag = "--" + name;
      if (kind == FlagKind::kSwitch) {
        ExpectRejected({table.commands[c].name, flag.c_str()}, table);
      } else {
        ExpectRejected({table.commands[c].name, flag.c_str(), "1"}, table);
      }
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(CoachlmFlagTableTest, BoundedRowsRejectOutOfRange) {
  const FlagTable& table = CoachlmFlagTable();
  for (const FlagSpec& spec : table.flags) {
    if (spec.kind != FlagKind::kInt && spec.kind != FlagKind::kDouble) continue;
    const char* command = FirstCommand(table, spec.commands);
    const std::string flag = "--" + std::string(spec.name);
    const std::string below = std::to_string(spec.min - 1);
    const std::string above =
        std::to_string(static_cast<uint64_t>(spec.max) + 1);
    for (const std::string& bad : {below, above, std::string("abc")}) {
      ExpectRejected({command, flag.c_str(), bad.c_str()}, table);
    }
    for (const int64_t good : {spec.min, spec.max}) {
      const std::string text = std::to_string(good);
      const Result<Flags> flags =
          ParseArgs({command, flag.c_str(), text.c_str()}, table);
      EXPECT_TRUE(flags.ok()) << flag << " " << text;
    }
  }
}

TEST(CoachlmFlagTableTest, EnumRowsRejectUnknownValues) {
  const FlagTable& table = CoachlmFlagTable();
  size_t enums = 0;
  for (const FlagSpec& spec : table.flags) {
    if (spec.kind != FlagKind::kEnum) continue;
    ++enums;
    const char* command = FirstCommand(table, spec.commands);
    const std::string flag = "--" + std::string(spec.name);
    ExpectRejected({command, flag.c_str(), "bogus"}, table);
    ExpectRejected({command, flag.c_str(), ""}, table);
    const Result<Flags> flags =
        ParseArgs({command, flag.c_str(), spec.fallback}, table);
    EXPECT_TRUE(flags.ok()) << flag;
  }
  EXPECT_EQ(enums, 3u);  // --format, --backbone, --testset
}

}  // namespace
}  // namespace coachlm
