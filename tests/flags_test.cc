// Unit tests for the Flags argv parser used by the bench driver.
#include <gtest/gtest.h>

#include <vector>

#include "common/flags.h"

namespace cuckoograph {
namespace {

Flags MakeFlags(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(FlagsTest, ParsesEqualsSyntax) {
  const Flags flags = MakeFlags({"--scale=2.5", "--max_edges=400000",
                                 "--datasets=CAIDA"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 2.5);
  EXPECT_EQ(flags.GetInt("max_edges", 0), 400000);
  EXPECT_EQ(flags.GetString("datasets", ""), "CAIDA");
}

TEST(FlagsTest, ParsesSpaceSeparatedValues) {
  const Flags flags = MakeFlags({"--scale", "0.25", "--checkpoints", "7"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.25);
  EXPECT_EQ(flags.GetInt("checkpoints", 5), 7);
}

TEST(FlagsTest, MissingFlagsFallBackToDefaults) {
  const Flags flags = MakeFlags({"--other=1"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.5), 1.5);
  EXPECT_EQ(flags.GetInt("checkpoints", 5), 5);
  EXPECT_EQ(flags.GetString("datasets", "all"), "all");
  EXPECT_FALSE(flags.Has("scale"));
  EXPECT_TRUE(flags.Has("other"));
}

const std::vector<FlagSpec> kAccepted = {{"scale", FlagType::kDouble},
                                          {"n", FlagType::kInt},
                                          {"csv", FlagType::kString}};

TEST(FlagsTest, UnparsableValuesAreRejected) {
  EXPECT_EQ(MakeFlags({"--scale=0.5", "--n", "-3", "--csv=out.csv"})
                .Validate(kAccepted),
            "");
  EXPECT_EQ(MakeFlags({"--scale=abc"}).Validate(kAccepted),
            "--scale needs a number, got 'abc'");
  EXPECT_EQ(MakeFlags({"--n=12x"}).Validate(kAccepted),
            "--n needs an integer, got '12x'");
  EXPECT_EQ(MakeFlags({"--n=1.5"}).Validate(kAccepted),
            "--n needs an integer, got '1.5'");
  EXPECT_EQ(MakeFlags({"--scale"}).Validate(kAccepted),
            "--scale needs a value");
  EXPECT_EQ(MakeFlags({"--csv="}).Validate(kAccepted), "--csv needs a value");
}

TEST(FlagsTest, UnknownFlagsAndPositionalsAreRejected) {
  EXPECT_EQ(MakeFlags({"--scael", "0.01"}).Validate(kAccepted),
            "unknown flag --scael");
  EXPECT_EQ(MakeFlags({"-scale", "0.01"}).Validate(kAccepted),
            "unexpected argument '-scale'");
}

TEST(FlagsTest, IntegersOutsideTheDeclaredRangeAreRejected) {
  const std::vector<FlagSpec> accepted = {{"threads", FlagType::kInt, 1, 256},
                                          {"n", FlagType::kInt}};
  EXPECT_EQ(MakeFlags({"--threads=1"}).Validate(accepted), "");
  EXPECT_EQ(MakeFlags({"--threads=256"}).Validate(accepted), "");
  EXPECT_EQ(MakeFlags({"--threads=0"}).Validate(accepted),
            "--threads must be between 1 and 256, got '0'");
  EXPECT_EQ(MakeFlags({"--threads", "257"}).Validate(accepted),
            "--threads must be between 1 and 256, got '257'");
  EXPECT_EQ(MakeFlags({"--threads=-1"}).Validate(accepted),
            "--threads must be between 1 and 256, got '-1'");
  // strtoll saturates an overflowing value, which the range still catches.
  EXPECT_NE(MakeFlags({"--threads=99999999999999999999"}).Validate(accepted),
            "");
  // Without a declared range every integer is accepted.
  EXPECT_EQ(MakeFlags({"--n=-9223372036854775807"}).Validate(accepted), "");
}

TEST(FlagsTest, NegativeAndBareFlags) {
  const Flags flags = MakeFlags({"--delta", "-5", "--verbose"});
  EXPECT_EQ(flags.GetInt("delta", 0), -5);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_EQ(flags.GetInt("verbose", 9), 9);  // bare flag has no value
}

TEST(FlagsTest, LastOccurrenceWins) {
  const Flags flags = MakeFlags({"--scale=1", "--scale=2"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 0.0), 2.0);
}

}  // namespace
}  // namespace cuckoograph
