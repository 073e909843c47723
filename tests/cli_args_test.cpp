#include "cli/args.h"

#include <gtest/gtest.h>

namespace tsufail::cli {
namespace {

ArgParser demo_parser() {
  ArgParser parser("demo", "A demo command.");
  parser.positional({"input", "input file", true});
  parser.positional({"extra", "optional second file", false});
  parser.option({"count", "N", "how many", std::string("5")});
  parser.option({"name", "TEXT", "a label", {}});
  parser.option({"verbose", "", "chatty output", {}});
  return parser;
}

TEST(ArgParser, PositionalsAndDefaults) {
  auto parsed = demo_parser().parse({"file.csv"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().positionals(), (std::vector<std::string>{"file.csv"}));
  EXPECT_EQ(parsed.value().get("count").value(), "5");       // default applied
  EXPECT_EQ(parsed.value().get_int("count").value(), 5);
  EXPECT_FALSE(parsed.value().flag("verbose"));
  EXPECT_FALSE(parsed.value().get("name").ok());             // no default
}

TEST(ArgParser, SeparateAndInlineValues) {
  auto a = demo_parser().parse({"f", "--count", "9"});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().get_int("count").value(), 9);
  auto b = demo_parser().parse({"f", "--count=12"});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().get_int("count").value(), 12);
}

TEST(ArgParser, BooleanFlags) {
  auto parsed = demo_parser().parse({"f", "--verbose"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().flag("verbose"));
  EXPECT_FALSE(demo_parser().parse({"f", "--verbose=yes"}).ok());
}

TEST(ArgParser, OptionalPositional) {
  auto parsed = demo_parser().parse({"a.csv", "b.csv"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().positionals().size(), 2u);
}

TEST(ArgParser, Errors) {
  EXPECT_FALSE(demo_parser().parse({}).ok());                         // missing positional
  EXPECT_FALSE(demo_parser().parse({"a", "b", "c"}).ok());            // too many
  EXPECT_FALSE(demo_parser().parse({"a", "--nope"}).ok());            // unknown option
  EXPECT_FALSE(demo_parser().parse({"a", "--count"}).ok());           // missing value
  auto bad_int = demo_parser().parse({"a", "--count", "xyz"});
  ASSERT_TRUE(bad_int.ok());  // parse is lazy; typing fails at access
  EXPECT_FALSE(bad_int.value().get_int("count").ok());
}

TEST(ArgParser, DoubleDashEndsOptions) {
  auto parsed = demo_parser().parse({"--count", "3", "--", "--verbose"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().positionals(), (std::vector<std::string>{"--verbose"}));
  EXPECT_FALSE(parsed.value().flag("verbose"));

  ArgParser wrapper("wrap", "Runs another command.");
  wrapper.option({"runs", "N", "repetitions", std::string("1")});
  wrapper.passthrough({"command", "the command line to run", true});
  auto wrapped = wrapper.parse({"--runs", "2", "--", "analyze", "x.csv", "--jobs", "4"});
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped.value().get_int("runs").value(), 2);
  EXPECT_TRUE(wrapped.value().positionals().empty());
  EXPECT_EQ(wrapped.value().passthrough(),
            (std::vector<std::string>{"analyze", "x.csv", "--jobs", "4"}));
  EXPECT_FALSE(wrapper.parse({"--runs", "2"}).ok());        // no command
  EXPECT_FALSE(wrapper.parse({"--runs", "2", "--"}).ok());  // empty command
  EXPECT_FALSE(wrapper.parse({"analyze", "--", "x"}).ok()); // positional before --
  EXPECT_NE(wrapper.help().find("usage: tsufail wrap [options] -- <command>"), std::string::npos);
}

TEST(ArgParser, DoubleAccessor) {
  ArgParser parser("d", "doubles");
  parser.option({"ratio", "X", "a ratio", std::string("0.5")});
  auto parsed = parser.parse({});
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().get_double("ratio").value(), 0.5);
}

TEST(ArgParser, HelpMentionsEverything) {
  const std::string help = demo_parser().help();
  EXPECT_NE(help.find("usage: tsufail demo"), std::string::npos);
  EXPECT_NE(help.find("<input>"), std::string::npos);
  EXPECT_NE(help.find("[extra]"), std::string::npos);
  EXPECT_NE(help.find("--count <N>"), std::string::npos);
  EXPECT_NE(help.find("default: 5"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace tsufail::cli
