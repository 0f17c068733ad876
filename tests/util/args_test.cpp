#include "util/args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace edgerep {
namespace {

Args make_args(std::vector<const char*> argv) {
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EqualsSyntax) {
  const Args a = make_args({"prog", "--size=42"});
  EXPECT_TRUE(a.has("size"));
  EXPECT_EQ(a.get_int("size", 0), 42);
}

TEST(Args, SpaceSyntax) {
  const Args a = make_args({"prog", "--name", "value"});
  EXPECT_EQ(a.get("name", ""), "value");
}

TEST(Args, BareBooleanFlag) {
  const Args a = make_args({"prog", "--verbose"});
  EXPECT_TRUE(a.get_bool("verbose", false));
}

TEST(Args, BooleanSpellings) {
  const Args a = make_args({"prog", "--a=yes", "--b=off", "--c=1", "--d=false"});
  EXPECT_TRUE(a.get_bool("a", false));
  EXPECT_FALSE(a.get_bool("b", true));
  EXPECT_TRUE(a.get_bool("c", false));
  EXPECT_FALSE(a.get_bool("d", true));
}

TEST(Args, Defaults) {
  const Args a = make_args({"prog"});
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(a.get_bool("missing", true));
}

TEST(Args, DoubleParsing) {
  const Args a = make_args({"prog", "--rate=0.25"});
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0.0), 0.25);
}

TEST(Args, MalformedIntThrows) {
  const Args a = make_args({"prog", "--n=12x"});
  EXPECT_THROW((void)a.get_int("n", 0), std::runtime_error);
}

TEST(Args, MalformedBoolThrows) {
  const Args a = make_args({"prog", "--b=maybe"});
  EXPECT_THROW((void)a.get_bool("b", false), std::runtime_error);
}

TEST(Args, Positional) {
  const Args a = make_args({"prog", "input.txt", "--n=1", "out.txt"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  EXPECT_EQ(a.positional()[1], "out.txt");
  EXPECT_EQ(a.program(), "prog");
}

TEST(Args, SeedHexAndDecimal) {
  const Args a = make_args({"prog", "--s1=0xff", "--s2=123"});
  EXPECT_EQ(a.get_seed("s1", 0), 255u);
  EXPECT_EQ(a.get_seed("s2", 0), 123u);
  EXPECT_EQ(a.get_seed("missing", 9), 9u);
}

TEST(Args, NegativeNumberAsValue) {
  // A negative number after a flag must bind as its value, not a new flag.
  const Args a = make_args({"prog", "--delta", "-5"});
  EXPECT_EQ(a.get_int("delta", 0), -5);
}

TEST(Args, RejectUnusedPassesWhenEveryFlagWasRead) {
  const Args a = make_args({"prog", "--size=4", "--verbose", "--rate", "2",
                            "--seed=7", "--name", "x", "--out=o.txt"});
  (void)a.get_int("size", 0);
  (void)a.get_bool("verbose", false);
  (void)a.get_double("rate", 0.0);
  (void)a.get_seed("seed", 0);
  (void)a.get("name", "");
  EXPECT_TRUE(a.has("out"));  // has() consumes too
  EXPECT_NO_THROW(a.reject_unused());
}

TEST(Args, RejectUnusedNamesEveryLeftover) {
  // The misspelt --kernal and the never-read --oversub are both reported;
  // reading a flag that was not passed consumes nothing.
  const Args a = make_args(
      {"prog", "--kernal", "closure", "--oversub", "9", "--arrival-rate=4"});
  (void)a.get_double("arrival-rate", 1.0);
  (void)a.get("network", "table");
  try {
    a.reject_unused();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unknown or unused flag(s): --kernal, --oversub");
  }
}

TEST(Args, RejectUnusedIgnoresPositionals) {
  const Args a = make_args({"prog", "input.txt", "--n=1"});
  (void)a.get_int("n", 0);
  EXPECT_NO_THROW(a.reject_unused());
}

TEST(Args, FailedParseStillCountsAsRead) {
  // A malformed value is its own error; it must not also be reported as an
  // unknown flag.
  const Args a = make_args({"prog", "--size=abc"});
  EXPECT_THROW((void)a.get_int("size", 0), std::runtime_error);
  EXPECT_NO_THROW(a.reject_unused());
}

}  // namespace
}  // namespace edgerep
