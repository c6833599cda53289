#include "runner/args.hpp"

#include <gtest/gtest.h>

namespace dtncache::runner {
namespace {

ArgParser parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EqualsForm) {
  auto p = parse({"--tau=6.5", "--name=reality"});
  EXPECT_DOUBLE_EQ(p.getDouble("--tau", 1.0, "t"), 6.5);
  EXPECT_EQ(p.getString("--name", "x", "n"), "reality");
  EXPECT_TRUE(p.errors().empty());
}

TEST(Args, SpaceSeparatedForm) {
  auto p = parse({"--tau", "2.5", "--count", "7"});
  EXPECT_DOUBLE_EQ(p.getDouble("--tau", 1.0, "t"), 2.5);
  EXPECT_EQ(p.getInt("--count", 0, "c"), 7);
  EXPECT_TRUE(p.errors().empty());
}

TEST(Args, DefaultsWhenAbsent) {
  auto p = parse({});
  EXPECT_DOUBLE_EQ(p.getDouble("--tau", 42.0, "t"), 42.0);
  EXPECT_EQ(p.getString("--name", "def", "n"), "def");
  EXPECT_FALSE(p.getBool("--verbose", "v"));
}

TEST(Args, BareFlags) {
  auto p = parse({"--csv", "--tau=1"});
  EXPECT_TRUE(p.getBool("--csv", "c"));
  p.getDouble("--tau", 0.0, "t");
  EXPECT_TRUE(p.errors().empty());
}

TEST(Args, UnknownFlagReported) {
  auto p = parse({"--shceme=foo"});
  p.getString("--scheme", "bar", "s");
  const auto errors = p.errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("--shceme"), std::string::npos);
}

TEST(Args, RepeatedFlagReported) {
  auto p = parse({"--sweep=a=1", "--sweep", "b=2", "--csv", "--csv"});
  EXPECT_EQ(p.getString("--sweep", "", "s"), "a=1");
  EXPECT_TRUE(p.getBool("--csv", "c"));
  const auto errors = p.errors();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], "flag given more than once: --sweep");
  EXPECT_EQ(errors[1], "flag given more than once: --csv");
}

TEST(Args, BadNumberReported) {
  auto p = parse({"--tau=abc", "--count=1.5"});
  EXPECT_DOUBLE_EQ(p.getDouble("--tau", 3.0, "t"), 3.0);  // default on error
  EXPECT_EQ(p.getInt("--count", 9, "c"), 9);
  EXPECT_EQ(p.errors().size(), 2u);
}

TEST(Args, HelpRequested) {
  EXPECT_TRUE(parse({"--help"}).helpRequested());
  EXPECT_TRUE(parse({"-h"}).helpRequested());
  EXPECT_FALSE(parse({"--x=1"}).helpRequested());
}

TEST(Args, PositionalArgumentIsError) {
  auto p = parse({"trace.csv"});
  EXPECT_EQ(p.errors().size(), 1u);
}

TEST(Args, HelpTextListsRegisteredOptions) {
  auto p = parse({});
  p.getDouble("--tau", 6.0, "refresh period");
  p.getBool("--csv", "emit csv");
  const std::string help = p.helpText("prog");
  EXPECT_NE(help.find("--tau=<value>"), std::string::npos);
  EXPECT_NE(help.find("refresh period"), std::string::npos);
  EXPECT_NE(help.find("(default: 6)"), std::string::npos);
  EXPECT_NE(help.find("--csv\n"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(Args, ProvidedTracksExplicitFlagsOnly) {
  auto p = parse({"--tau=6.5", "--csv"});
  EXPECT_TRUE(p.provided("--tau"));
  EXPECT_TRUE(p.provided("--csv"));
  EXPECT_FALSE(p.provided("--theta"));
  // provided() does not consume: lookups still needed for validation.
  p.getDouble("--tau", 0.0, "t");
  p.getBool("--csv", "c");
  EXPECT_TRUE(p.errors().empty());
}

TEST(Args, NegativeNumbersAsValues) {
  auto p = parse({"--offset=-5"});
  EXPECT_EQ(p.getInt("--offset", 0, "o"), -5);
  EXPECT_TRUE(p.errors().empty());
}

TEST(Args, DefaultTextReplacesTheShownDefault) {
  auto p = parse({});
  EXPECT_EQ(p.getInt("--items", 10, "catalog size", "the preset's value"), 10);
  p.getDouble("--tau", 6.0, "refresh period", "the preset's value");
  const std::string help = p.helpText("prog");
  EXPECT_NE(help.find("catalog size (default: the preset's value)"), std::string::npos);
  EXPECT_NE(help.find("refresh period (default: the preset's value)"), std::string::npos);
  EXPECT_EQ(help.find("(default: 10)"), std::string::npos);
}

TEST(Args, AddedErrorsJoinTheParseErrors) {
  auto p = parse({"--tau=abc"});
  p.getDouble("--tau", 1.0, "t");
  p.addError("--tau must be positive");
  const auto errors = p.errors();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[1], "--tau must be positive");
}

TEST(Args, FinishReturnsTheExitStatus) {
  auto help = parse({"--help", "--bogus"});
  EXPECT_EQ(help.finish("prog"), 0);  // help wins over errors
  auto bad = parse({"--bogus"});
  EXPECT_EQ(bad.finish("prog"), 2);
  auto good = parse({"--tau=1"});
  good.getDouble("--tau", 0.0, "t");
  EXPECT_FALSE(good.finish("prog").has_value());
}

}  // namespace
}  // namespace dtncache::runner
