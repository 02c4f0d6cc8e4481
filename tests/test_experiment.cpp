// Tests for the experiment harness: CLI args and table rendering (the
// sweep runner is tested with the executor in test_jobs.cpp).

#include <gtest/gtest.h>

#include <sstream>

#include "experiment/args.hpp"
#include "experiment/table.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

Args make_args(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, ParsesKeyValuesAndFlags) {
  const Args args = make_args({"--n=4096", "--rate=2.5", "--csv",
                               "--name=exp_one"});
  EXPECT_EQ(args.get_u64("n", 0), 4096u);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_string("name", ""), "exp_one");
  EXPECT_TRUE(args.csv());
  EXPECT_FALSE(args.has_flag("verbose"));
}

TEST(ArgsTest, FallbacksForMissingKeys) {
  const Args args = make_args({});
  EXPECT_EQ(args.get_u64("n", 77), 77u);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(args.csv());
}

TEST(ArgsTest, RejectsPositionalArguments) {
  EXPECT_THROW(make_args({"positional"}), ContractViolation);
}

TEST(ArgsTest, PositionalErrorNamesTheArgument) {
  try {
    make_args({"n=4096"});  // typo: forgot the leading --
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("n=4096"), std::string::npos)
        << e.what();
  }
}

TEST(ArgsTest, RejectsMalformedUnsigned) {
  const Args args = make_args({"--reps=abc", "--n=12x", "--neg=-3",
                               "--plus=+3", "--empty=", "--huge="
                               "99999999999999999999999999"});
  EXPECT_THROW(args.get_u64("reps", 0), ContractViolation);
  EXPECT_THROW(args.get_u64("n", 0), ContractViolation);
  EXPECT_THROW(args.get_u64("neg", 0), ContractViolation);
  EXPECT_THROW(args.get_u64("plus", 0), ContractViolation);
  EXPECT_THROW(args.get_u64("empty", 0), ContractViolation);
  EXPECT_THROW(args.get_u64("huge", 0), ContractViolation);
}

TEST(ArgsTest, MalformedUnsignedErrorNamesTheFlag) {
  const Args args = make_args({"--reps=abc"});
  try {
    args.get_u64("reps", 0);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("reps"), std::string::npos) << what;
    EXPECT_NE(what.find("abc"), std::string::npos) << what;
  }
}

TEST(ArgsTest, RejectsMalformedDouble) {
  const Args args = make_args({"--rate=1.5.2", "--eps=", "--x=fast"});
  EXPECT_THROW(args.get_double("rate", 0.0), ContractViolation);
  EXPECT_THROW(args.get_double("eps", 0.0), ContractViolation);
  EXPECT_THROW(args.get_double("x", 0.0), ContractViolation);
}

TEST(ArgsTest, AcceptsWellFormedNumbers) {
  const Args args = make_args({"--n=18446744073709551615", "--rate=1e3",
                               "--eps=-0.25"});
  EXPECT_EQ(args.get_u64("n", 0), UINT64_MAX);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), -0.25);
}

TEST(ArgsTest, RejectsWhitespaceAndSignTricks) {
  // strtoull's own parsing skips whitespace and then accepts a sign,
  // wrapping " -3" to ~2^64; the getters must not let that through.
  const Args args = make_args({"--n= -3", "--m= 5", "--x= 1.5",
                               "--bad=nan", "--worse=inf"});
  EXPECT_THROW(args.get_u64("n", 0), ContractViolation);
  EXPECT_THROW(args.get_u64("m", 0), ContractViolation);
  EXPECT_THROW(args.get_double("x", 0.0), ContractViolation);
  EXPECT_THROW(args.get_double("bad", 0.0), ContractViolation);
  EXPECT_THROW(args.get_double("worse", 0.0), ContractViolation);
}

TEST(ArgsTest, DoubleRangeEdges) {
  // Gradual underflow (subnormals) is representable and must parse;
  // only true overflow is rejected.
  const Args args = make_args({"--tiny=1e-320", "--huge=1e400"});
  EXPECT_GT(args.get_double("tiny", 0.0), 0.0);
  EXPECT_LT(args.get_double("tiny", 0.0), 1e-300);
  EXPECT_THROW(args.get_double("huge", 0.0), ContractViolation);
}

TEST(ArgsTest, RejectsEmptyAndKeylessOptions) {
  EXPECT_THROW(make_args({"--"}), ContractViolation);
  EXPECT_THROW(make_args({"--=value"}), ContractViolation);
}

TEST(TableTest, AlignedRendering) {
  Table t("demo", {"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvMode) {
  Table t("demo", {"a", "b"});
  t.row().cell(std::uint64_t{1}).cell(std::uint64_t{2});
  std::ostringstream os;
  t.print(os, /*csv=*/true);
  EXPECT_EQ(os.str(), "# demo\na,b\n1,2\n");
}

TEST(TableTest, RowWidthContract) {
  Table t("demo", {"a", "b"});
  t.row().cell("only-one");
  EXPECT_THROW(t.row(), ContractViolation);  // previous row incomplete
  Table t2("demo", {"a"});
  t2.row().cell("x");
  EXPECT_THROW(t2.row().cell("y").cell("z"), ContractViolation);
}

}  // namespace
}  // namespace plurality
