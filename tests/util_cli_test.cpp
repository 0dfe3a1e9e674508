#include "util/cli.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace raidrel::util {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, SeparateValueForm) {
  const auto args = make({"--trials", "5000", "--seed", "42"});
  EXPECT_EQ(args.get_int("trials", 0), 5000);
  EXPECT_EQ(args.get_int("seed", 0), 42);
}

TEST(CliArgs, EqualsValueForm) {
  const auto args = make({"--scrub=168.5"});
  EXPECT_DOUBLE_EQ(args.get_double("scrub", 0.0), 168.5);
}

TEST(CliArgs, BareFlagIsBooleanTrue) {
  const auto args = make({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, BooleanValueParsing) {
  EXPECT_FALSE(make({"--x", "false"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
  EXPECT_TRUE(make({"--x", "yes"}).get_bool("x", false));
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const auto args = make({});
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(CliArgs, PositionalsCollected) {
  const auto args = make({"pos1", "--k", "v", "pos2"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
  EXPECT_EQ(args.program(), "prog");
}

TEST(CliArgs, StringValues) {
  const auto args = make({"--out", "results.csv"});
  EXPECT_EQ(args.get_string("out", ""), "results.csv");
}

// "--trials abc" used to parse as 0 (strtoll with an unchecked end
// pointer) and silently run zero trials. It must be a loud error.
TEST(CliArgs, GetIntRejectsUnparseableValues) {
  EXPECT_THROW((void)make({"--trials", "abc"}).get_int("trials", 1),
               ModelError);
  EXPECT_THROW((void)make({"--trials", "12x"}).get_int("trials", 1),
               ModelError);
  EXPECT_THROW((void)make({"--trials="}).get_int("trials", 1), ModelError);
  EXPECT_THROW(
      (void)make({"--trials", "999999999999999999999"}).get_int("trials", 1),
      ModelError);
}

TEST(CliArgs, GetDoubleRejectsUnparseableValues) {
  EXPECT_THROW((void)make({"--scrub", "fast"}).get_double("scrub", 1.0),
               ModelError);
  EXPECT_THROW((void)make({"--scrub", "1.5h"}).get_double("scrub", 1.0),
               ModelError);
  EXPECT_THROW((void)make({"--scrub="}).get_double("scrub", 1.0), ModelError);
}

// strtod parses these without an error, so they used to reach the model.
TEST(CliArgs, GetDoubleRejectsNonFiniteValues) {
  for (const char* raw : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    EXPECT_THROW(
        (void)make({"--target-sem", raw}).get_double("target-sem", 1.0),
        ModelError)
        << raw;
  }
}

TEST(CliArgs, ParseErrorNamesTheFlag) {
  try {
    (void)make({"--trials", "abc"}).get_int("trials", 1);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("--trials"), std::string::npos)
        << e.what();
  }
}

TEST(CliArgs, GetIntStillParsesNegativesAndSigns) {
  EXPECT_EQ(make({"--offset", "-12"}).get_int("offset", 0), -12);
  EXPECT_EQ(make({"--offset", "+7"}).get_int("offset", 0), 7);
}

TEST(CliArgs, GetIntAtLeastEnforcesMinimum) {
  EXPECT_EQ(make({"--group", "4"}).get_int_at_least("group", 8, 2), 4);
  EXPECT_EQ(make({}).get_int_at_least("group", 8, 2), 8);  // fallback passes
  EXPECT_THROW((void)make({"--group", "-3"}).get_int_at_least("group", 8, 2),
               ModelError);
  EXPECT_THROW((void)make({"--group", "1"}).get_int_at_least("group", 8, 2),
               ModelError);
}

}  // namespace
}  // namespace raidrel::util
