// Runs every figure of the cuckoograph_bench registry at its smoke size
// through the driver's command line, so each reproduction and its own
// correctness gate (oracle checks, lost-edge checks, theorem bounds) runs
// in tier-1; and checks that the driver rejects bad command lines.
#include <gtest/gtest.h>

#include <climits>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "figures.h"
#include "persist/file_io.h"

namespace cuckoograph::bench {
namespace {

int RunCommand(std::vector<std::string> args) {
  args.insert(args.begin(), "cuckoograph_bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return RunFigureCommand(static_cast<int>(argv.size()), argv.data());
}

// A fresh mkdtemp directory, removed with the fixture.
class TempDir {
 public:
  TempDir() {
    std::string error;
    path_ = persist::MakeTempDir("cuckoograph-figure-", &error);
    EXPECT_FALSE(path_.empty()) << error;
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool Accepts(const Figure& figure, const std::string& flag) {
  for (const FlagSpec& spec : figure.flags) {
    if (flag == spec.name) return true;
  }
  return false;
}

std::vector<std::string> FigureIds() {
  std::vector<std::string> ids;
  for (const Figure& figure : AllFigures()) ids.push_back(figure.id);
  return ids;
}

class FigureSmokeTest : public testing::TestWithParam<std::string> {};

TEST_P(FigureSmokeTest, RunsAtSmokeSize) {
  const Figure* figure = FindFigure(GetParam());
  ASSERT_NE(figure, nullptr);
  const TempDir dir;
  std::vector<std::string> args = figure->smoke_args;
  args.insert(args.begin(), {"--figure", figure->id});
  if (Accepts(*figure, "durable-dir")) {
    args.insert(args.end(), {"--durable-dir", dir.path()});
  }
  const std::string csv = dir.path() + "/figure.csv";
  if (Accepts(*figure, "csv")) args.insert(args.end(), {"--csv", csv});
  EXPECT_EQ(RunCommand(args), 0);
  if (Accepts(*figure, "csv")) {
    EXPECT_GT(std::filesystem::file_size(csv), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, FigureSmokeTest, testing::ValuesIn(FigureIds()),
    [](const testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(FigureDriverTest, EveryFigureRejectsAnUndeclaredFlag) {
  for (const Figure& figure : AllFigures()) {
    EXPECT_EQ(RunCommand({"--figure", figure.id, "--threds", "2"}), 2)
        << figure.id;
  }
}

TEST(FigureDriverTest, RejectsUnparsableValuesAndStrayArguments) {
  EXPECT_EQ(RunCommand({"--figure", "fig12", "--scale", "0.o1"}), 2);
  EXPECT_EQ(RunCommand({"--figure", "fig12", "--threads", "2x"}), 2);
  EXPECT_EQ(RunCommand({"--figure", "fig12", "-scale", "0.01"}), 2);
  EXPECT_EQ(RunCommand({"--figure", "theorem2", "--nodes"}), 2);
}

// Out-of-range integers exit 2 before the figure body runs. The values
// here are ones a body would survive if the gate ever let them through.
TEST(FigureDriverTest, RejectsOutOfRangeIntegers) {
  EXPECT_EQ(RunCommand({"--figure", "theorem2", "--nodes", "0"}), 2);
  EXPECT_EQ(RunCommand({"--figure", "table3", "--max_edges", "0"}), 2);
  EXPECT_EQ(RunCommand({"--figure", "served", "--connections", "0"}), 2);
  EXPECT_EQ(RunCommand({"--figure", "fig2", "--checkpoints", "0"}), 2);
}

// A negative size would wrap to ~2^64 and an oversized count would start
// that many threads, so these are checked against each figure's declared
// flags by validation alone; no figure is started with them.
TEST(FigureDriverTest, DeclaredRangesRejectWrappingSizesAndThreadFloods) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"nodes", "-1"},          {"max_edges", "-5"},
      {"threads", "100000"},    {"threads", "0"},
      {"connections", "10000"}, {"workers", "10000"},
      {"shards", "1000000"},    {"pipeline", "-1"}};
  for (const auto& [flag, value] : bad) {
    size_t declared = 0;
    for (const Figure& figure : AllFigures()) {
      if (!Accepts(figure, flag)) continue;
      ++declared;
      std::string arg = "--" + flag + "=" + value;
      char* argv[] = {const_cast<char*>("cuckoograph_bench"), arg.data()};
      EXPECT_NE(Flags(2, argv).Validate(figure.flags), "")
          << figure.id << " " << arg;
    }
    EXPECT_GT(declared, 0u) << flag;
  }
}

TEST(FigureDriverTest, EveryIntegerFlagDeclaresARange) {
  for (const Figure& figure : AllFigures()) {
    for (const FlagSpec& spec : figure.flags) {
      if (spec.type != FlagType::kInt) continue;
      EXPECT_GT(spec.min, LLONG_MIN) << figure.id << " --" << spec.name;
      EXPECT_LT(spec.max, LLONG_MAX) << figure.id << " --" << spec.name;
    }
  }
}

TEST(FigureDriverTest, RejectsAnUnknownOrMissingFigure) {
  EXPECT_EQ(RunCommand({"--figure", "fig99"}), 2);
  EXPECT_EQ(RunCommand({}), 2);
}

TEST(FigureDriverTest, RejectsAnUnwritableCsvPath) {
  const TempDir dir;
  EXPECT_EQ(RunCommand({"--figure", "fig18", "--scale", "0.01", "--csv",
                        dir.path() + "/missing/fig18.csv"}),
            2);
}

}  // namespace
}  // namespace cuckoograph::bench
