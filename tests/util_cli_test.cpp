#include "util/cli.h"

#include <cmath>
#include <cstdio>
#include <random>

#include <gtest/gtest.h>

#include "support/hostile_bytes.h"
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
  EXPECT_EQ(make({"--group", "4"}).get_int_in<unsigned>("group", 8, 2), 4u);
  EXPECT_EQ(make({}).get_int_in<unsigned>("group", 8, 2), 8u);  // fallback
  EXPECT_THROW((void)make({"--group", "-3"}).get_int_in<unsigned>("group", 8, 2),
               ModelError);
  EXPECT_THROW((void)make({"--group", "1"}).get_int_in<unsigned>("group", 8, 2),
               ModelError);
}

// Parsing only: no run and no thread starts here.
TEST(CliArgs, GetIntInRejectsValuesTheDestinationCannotHold) {
  // 2^32 + 1 used to wrap through static_cast<unsigned> into 1 worker, and
  // 2^32 into 0 ("every core").
  for (const char* raw : {"4294967297", "4294967296", "-1"}) {
    EXPECT_THROW((void)make({"--threads", raw}).get_int_in<unsigned>(
                     "threads", 0, 0),
                 ModelError)
        << raw;
  }
  EXPECT_EQ(make({"--threads", "4294967295"})
                .get_int_in<unsigned>("threads", 0, 0),
            4294967295u);
  // An explicit upper bound.
  EXPECT_EQ(make({"--vintage", "3"}).get_int_in<std::size_t>("vintage", 1, 1, 3),
            3u);
  EXPECT_THROW(
      (void)make({"--vintage", "4"}).get_int_in<std::size_t>("vintage", 1, 1, 3),
      ModelError);
  // The drivers' --threads bound: past it no worker thread is asked for.
  EXPECT_EQ(make({"--threads", "1024"})
                .get_int_in<unsigned>("threads", 0, 0, kMaxCliThreads),
            kMaxCliThreads);
  EXPECT_THROW((void)make({"--threads", "100000"})
                   .get_int_in<unsigned>("threads", 0, 0, kMaxCliThreads),
               ModelError);
  // 64-bit destinations are bounded by the parser's own range.
  EXPECT_EQ(make({"--trials", "9223372036854775807"})
                .get_int_in<std::size_t>("trials", 1, 1),
            9223372036854775807u);
  try {
    (void)make({"--data-drives", "4294967297"})
        .get_int_in<unsigned>("data-drives", 28, 1);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("--data-drives"), std::string::npos)
        << e.what();
  }
}

TEST(CliArgs, UnknownFlagsListsWhatTheKnownSetLacks) {
  constexpr std::string_view kKnown[] = {"study", "trials", "quiet"};
  try {
    make({"--study", "table3", "--trails", "5", "--quiet", "--mainfest=x"})
        .reject_unknown_flags(kKnown);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "unknown flags --mainfest, --trails");
  }
  EXPECT_NO_THROW(make({"--trials", "5", "pos"}).reject_unknown_flags(kKnown));
  EXPECT_THROW(make({"--help"}).reject_unknown_flags(kKnown), ModelError);
}

// Hostile bytes (docs/MODEL.md §11): every mutated flag value either
// parses to a number that re-parses equal, or throws ModelError.
TEST(CliArgs, HostileBytesParseOrThrowModelError) {
  const std::vector<std::string> corpus = {
      "0",     "42",          "-7",   "+3",    "4294967295", "4294967296",
      "9223372036854775807",  "1.5",  "-2.5e3", "1e308",     "0x1p3",
      " 12",   "168.000001",  "1e-300"};
  std::mt19937_64 rng(20070625);
  for (const std::string& seed_text : corpus) {
    for (int m = 0; m < 300; ++m) {
      std::string bytes = seed_text;
      for (int k = 0; k <= m % 3; ++k) test::mutate_bytes(bytes, rng);
      // argv strings end at the first NUL byte, as a real command line's do.
      const std::string flag = "--x=" + std::string(bytes.c_str());
      SCOPED_TRACE("input \"" + flag + "\"");
      const auto args = make({flag.c_str()});
      try {
        const long long v = args.get_int("x", 0);
        const std::string again = "--x=" + std::to_string(v);
        EXPECT_EQ(make({again.c_str()}).get_int("x", 0), v);
      } catch (const ModelError&) {
      }
      try {
        const unsigned v = args.get_int_in<unsigned>("x", 0, 1);
        EXPECT_GE(v, 1u);
        const std::string again = "--x=" + std::to_string(v);
        EXPECT_EQ(make({again.c_str()}).get_int_in<unsigned>("x", 0, 1), v);
      } catch (const ModelError&) {
      }
      try {
        const double v = args.get_double("x", 0.0);
        EXPECT_TRUE(std::isfinite(v));
        char text[40];
        std::snprintf(text, sizeof text, "--x=%.17g", v);
        EXPECT_EQ(make({text}).get_double("x", 0.0), v);
      } catch (const ModelError&) {
      }
    }
  }
}

}  // namespace
}  // namespace raidrel::util
