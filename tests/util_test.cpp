// Unit tests for chk::util — RNG determinism/quality, stats, tables, CLI.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace chk::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent1(7), parent2(7);
  Rng child1 = parent1.fork(3);
  // chklint:allow(unique-fork-tags): the same tag twice is the point — the
  // test proves equal (seed, tag) pairs reproduce the identical stream.
  Rng child2 = parent2.fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ForkTagDecorrelates) {
  Rng parent(7);
  Rng a = Rng(7).fork(1);
  Rng b = Rng(7).fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(17);
  std::vector<int> counts(7, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_u64(7)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 7, kDraws / 7 / 5);  // within 20%
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.15);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole, part1, part2;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 10);
    whole.add(x);
    (i < 200 ? part1 : part2).add(x);
  }
  part1.merge(part2);
  EXPECT_EQ(part1.count(), whole.count());
  EXPECT_NEAR(part1.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(part1.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_TRUE(std::isnan(stats.min()));
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Table, RendersAlignedGrid) {
  Table t({"app", "overhead"});
  t.add_row({"SOR", "1.25"});
  t.add_row({"NQUEENS", "0.07"});
  const std::string out = t.render("Demo");
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("SOR"), std::string::npos);
  EXPECT_NE(out.find("NQUEENS"), std::string::npos);
  // every data line has the same width
  std::size_t width = 0;
  std::size_t pos = out.find('\n');
  for (std::size_t start = pos + 1; start < out.size();) {
    std::size_t end = out.find('\n', start);
    if (end == std::string::npos) break;
    if (width == 0) width = end - start;
    EXPECT_EQ(end - start, width);
    start = end + 1;
  }
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(Table::percent(0.0123, 2), "1.23 %");
  EXPECT_EQ(Table::bytes(2048), "2.0 KiB");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=4.5", "--flag", "--no-gamma"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("gamma", true));
  EXPECT_NO_THROW(cli.reject_unread());
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <class Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& err) {
    return err.what();
  }
  return "";
}

TEST(Cli, PathFlagsRequireAPath) {
  const char* argv[] = {"prog", "--trace-out", "--metrics-out=m.json", "--json-out=",
                        "--no-log", "--out", "--out=o.json"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(error_of([&] { (void)cli.get_path("trace-out"); }),
            "--trace-out: expected a file path");
  EXPECT_EQ(cli.get_path("metrics-out"), "m.json");
  EXPECT_EQ(error_of([&] { (void)cli.get_path("json-out"); }),
            "--json-out: expected a file path");
  EXPECT_EQ(error_of([&] { (void)cli.get_path("log"); }), "--log: expected a file path");
  EXPECT_EQ(cli.get_path("out"), "o.json");  // the last form given wins
  EXPECT_EQ(cli.get_path("absent"), std::nullopt);
}

TEST(Cli, StrictIntegersAndNumbersRejectTrailingGarbage) {
  const char* argv[] = {"prog", "--nodes=8x", "--runs=-1", "--big=99999999999999999999",
                        "--empty=",  "--rate=0.5x", "--ok=-3"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_NE(error_of([&] { (void)cli.get_int("nodes", 8); }).find("--nodes"),
            std::string::npos);
  EXPECT_NE(error_of([&] { (void)cli.get_int("runs", 4, 1); }).find("--runs"),
            std::string::npos);
  EXPECT_THROW((void)cli.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("empty", 0), std::invalid_argument);
  EXPECT_NE(error_of([&] { (void)cli.get_double("rate", 0); }).find("--rate"),
            std::string::npos);
  EXPECT_EQ(cli.get_int("ok", 0), -3);
  EXPECT_THROW((void)cli.get_int("ok", 0, 0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("missing", 7, 1), 7);
}

TEST(Cli, NumberListsAreStrict) {
  const char* argv[] = {"prog", "--losses=0.05,,0.2,", "--junk=0.1,0.5x",
                        "--range=0.5,1",  "--none=,"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_doubles("losses", "", 0, 1), (std::vector<double>{0.05, 0.2}));
  EXPECT_EQ(cli.get_doubles("missing", "1,2", 0, 3), (std::vector<double>{1, 2}));
  EXPECT_NE(error_of([&] { (void)cli.get_doubles("junk", "", 0, 1); }).find("--junk"),
            std::string::npos);
  EXPECT_NE(error_of([&] { (void)cli.get_doubles("range", "", 0, 1); }).find("--range"),
            std::string::npos);
  EXPECT_THROW((void)cli.get_doubles("none", "", 0, 1), std::invalid_argument);
  EXPECT_EQ(cli.get_list("missing", "SOR-384,NQUEENS-14"),
            (std::vector<std::string>{"SOR-384", "NQUEENS-14"}));
}

TEST(Cli, RejectsUnreadFlagsAndStrayArguments) {
  const char* argv[] = {"prog", "--losses=0.5", "--losess=0.5"};
  Cli cli(3, const_cast<char**>(argv));
  (void)cli.get_doubles("losses", "0.1", 0, 1);
  EXPECT_NE(error_of([&] { cli.reject_unread(); }).find("--losess"), std::string::npos);
  (void)cli.has("losess");  // a flag the program checks for counts as read
  EXPECT_NO_THROW(cli.reject_unread());

  const char* stray_argv[] = {"prog", "--quick", "stray", "--", "more"};
  Cli stray(5, const_cast<char**>(stray_argv));
  (void)stray.get_bool("quick", false);
  EXPECT_EQ(error_of([&] { stray.reject_unread(); }), "unknown flag --");
  const char* positional_argv[] = {"prog", "stray"};
  EXPECT_NE(error_of([&] { Cli(2, const_cast<char**>(positional_argv)).reject_unread(); })
                .find("'stray'"),
            std::string::npos);
}

TEST(Cli, BooleansAreStrict) {
  const char* argv[] = {"prog", "--a=true", "--b=1",  "--c=yes",   "--d=false",
                        "--e=0",    "--f=no", "--bare", "--no-neg", "--typo=flase",
                        "--empty="};
  Cli cli(11, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
  EXPECT_FALSE(cli.get_bool("e", true));
  EXPECT_FALSE(cli.get_bool("f", true));
  EXPECT_TRUE(cli.get_bool("bare", false));
  EXPECT_FALSE(cli.get_bool("neg", true));
  EXPECT_TRUE(cli.get_bool("absent", true));
  EXPECT_EQ(error_of([&] { (void)cli.get_bool("typo", true); }),
            "--typo: expected a boolean, got \"flase\"");
  EXPECT_EQ(error_of([&] { (void)cli.get_bool("empty", false); }),
            "--empty: expected a boolean, got \"\"");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, StrictProbabilityAcceptsTheValidRange) {
  const char* argv[] = {"prog", "--p0=0", "--p1=1", "--mid=0.25"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_prob("p0", 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cli.get_prob("p1", 0.5), 1.0);
  EXPECT_DOUBLE_EQ(cli.get_prob("mid", 0.5), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_prob("missing", 0.5), 0.5);
}

TEST(Cli, StrictProbabilityRejectsOutOfRangeAndGarbage) {
  const char* argv[] = {"prog", "--loss=1.5", "--dup=-0.1", "--junk=0.5x",
                        "--empty=",  "--word=lots", "--nan=nan"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_prob("loss", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_prob("dup", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_prob("junk", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_prob("empty", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_prob("word", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_prob("nan", 0), std::invalid_argument);
  // The error names the offending flag so the user can fix the right one.
  try {
    (void)cli.get_prob("loss", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("--loss"), std::string::npos);
  }
}

TEST(Cli, StrictNonNegativeRejectsNegativesAndGarbage) {
  const char* argv[] = {"prog", "--mean=0.002", "--neg=-1", "--junk=abc"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_nonneg_double("mean", 1), 0.002);
  EXPECT_DOUBLE_EQ(cli.get_nonneg_double("missing", 3.5), 3.5);
  EXPECT_THROW((void)cli.get_nonneg_double("neg", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_nonneg_double("junk", 0), std::invalid_argument);
}

}  // namespace
}  // namespace chk::util
