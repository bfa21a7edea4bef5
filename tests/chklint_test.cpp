// chklint fixture suite: every rule must fire on its known-bad snippet,
// stay silent on disciplined code, honor suppression comments, and produce
// byte-identical machine reports run-over-run. The last tests run the
// analyzer over the real tree — the discipline gate that keeps the repo
// lint-clean is itself tier-1 tested.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifndef CHKLINT_BIN
#error "CHKLINT_BIN must point at the chklint executable"
#endif
#ifndef CHKLINT_FIXTURES
#error "CHKLINT_FIXTURES must point at tests/chklint_fixtures"
#endif
#ifndef CHKLINT_SOURCE_ROOT
#error "CHKLINT_SOURCE_ROOT must point at the repository root"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult run_chklint(const std::string& args) {
  const std::string cmd = std::string(CHKLINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    result.output.append(buf.data(), n);
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string("--root ") + CHKLINT_FIXTURES + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST(ChklintRules, NoAmbientNondeterminismFires) {
  const RunResult r = run_chklint(fixture("bad_nondet"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("no-ambient-nondeterminism"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/worker.cpp"), std::string::npos) << r.output;
  // All five banned constructs in the fixture are reported.
  for (const char* banned : {"random_device", "mt19937", "system_clock", "time", "rand"})
    EXPECT_NE(r.output.find(banned), std::string::npos) << banned << "\n" << r.output;
}

TEST(ChklintRules, NoAmbientNondeterminismFiresOnThreadsInSrc) {
  const RunResult r = run_chklint(fixture("bad_threads"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/kernel.cpp"), std::string::npos) << r.output;
  for (const char* banned : {"binary_semaphore", "counting_semaphore", "jthread", "std::thread"})
    EXPECT_NE(r.output.find(banned), std::string::npos) << banned << "\n" << r.output;
  EXPECT_NE(r.output.find("4 finding(s)"), std::string::npos) << r.output;
  // bench/ drivers may run whole simulators on threads.
  EXPECT_EQ(r.output.find("bench/driver.cpp"), std::string::npos) << r.output;
}

TEST(ChklintRules, UniqueForkTagsFiresOnCollisionAndNonLiteral) {
  const RunResult r = run_chklint(fixture("bad_fork_tags"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The collision is charged to the later site, naming the canonical owner.
  EXPECT_NE(r.output.find("src/timers.cpp"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("collides with src/faultsim/quake.cpp"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("0xAB1E"), std::string::npos) << r.output;
  // The runtime-valued tag in fault-domain code is its own finding.
  EXPECT_NE(r.output.find("non-literal Rng::fork tag"), std::string::npos) << r.output;
}

TEST(ChklintRules, ReservedFaultDomainTagFiresOutsideOwner) {
  // 0xBEA7 (membership detector phases) forked outside its owning file is
  // a finding even with no second site to collide with.
  const RunResult r = run_chklint(fixture("bad_reserved_tag"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unique-fork-tags"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0xBEA7"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("membership detector phases"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("harness/experiment.cpp"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(ChklintRules, FreshTagNearReservedSetIsClean) {
  // The negative control: same code shape, fresh tag — silent.
  const RunResult r = run_chklint(fixture("clean_reserved_tag"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(ChklintRules, OneDoorStorageFires) {
  const RunResult r = run_chklint(fixture("bad_one_door"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("one-door-storage"), std::string::npos) << r.output;
  // Both receiver shapes: storage() accessor chain and storage_ member.
  EXPECT_NE(r.output.find("StableStorage::write_blocking"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("StableStorage::read_blocking"), std::string::npos)
      << r.output;
}

TEST(ChklintRules, DurationArithmeticFires) {
  const RunResult r = run_chklint(fixture("bad_duration"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("duration-arithmetic"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Duration::scaled"), std::string::npos) << r.output;
  // Three sites: / 2.0, * 1.5, service_time(...) * factor.
  EXPECT_NE(r.output.find("3 finding(s)"), std::string::npos) << r.output;
}

TEST(ChklintRules, OrderedEmissionFires) {
  const RunResult r = run_chklint(fixture("bad_ordered"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("ordered-emission"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unordered_map"), std::string::npos) << r.output;
  // src/svc is an emission path too (digest + checkpoint image bytes).
  EXPECT_NE(r.output.find("unordered_set"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/svc/shard.cpp"), std::string::npos) << r.output;
}

TEST(ChklintControls, CleanFixtureIsSilent) {
  const RunResult r = run_chklint(fixture("clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(ChklintControls, SuppressionCommentsSilenceFindings) {
  // Same violation classes as the positive controls, each carrying a
  // chklint:allow justification (line-above and trailing forms).
  const RunResult r = run_chklint(fixture("suppressed"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(ChklintControls, RuleFilterRunsOnlyNamedRule) {
  // With the filter on a rule the fixture does not violate, even the
  // known-bad tree comes back clean.
  const RunResult r =
      run_chklint(fixture("bad_ordered") + " --rule one-door-storage");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const RunResult unknown = run_chklint(fixture("bad_ordered") + " --rule no-such-rule");
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
}

TEST(ChklintControls, ListRulesNamesAllFive) {
  const RunResult r = run_chklint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule : {"no-ambient-nondeterminism", "unique-fork-tags", "one-door-storage",
                           "duration-arithmetic", "ordered-emission"})
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule << "\n" << r.output;
  EXPECT_EQ(r.output.find("bucket-partition-registration"), std::string::npos) << r.output;
}

TEST(ChklintTree, RngHeaderIsClean) {
  // The one file allowed to own raw generator machinery must itself be
  // finding-free (it is exempt from rule 1, not from the other four).
  const RunResult r = run_chklint(std::string("--root ") + CHKLINT_SOURCE_ROOT +
                                  " src/util/rng.hpp src/util/rng.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(ChklintTree, WholeTreeIsClean) {
  // The discipline gate: src/, bench/ and tests/ must lint clean with all
  // five rules enabled (deliberate exceptions carry chklint:allow comments).
  const RunResult r = run_chklint(std::string("--root ") + CHKLINT_SOURCE_ROOT);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(ChklintReports, JsonAndSarifAreByteIdenticalAcrossRuns) {
  const std::string json1 = testing::TempDir() + "chklint_run1.json";
  const std::string json2 = testing::TempDir() + "chklint_run2.json";
  const std::string sarif1 = testing::TempDir() + "chklint_run1.sarif";
  const std::string sarif2 = testing::TempDir() + "chklint_run2.sarif";
  const std::string args = fixture("bad_fork_tags") + " -q";
  EXPECT_EQ(run_chklint(args + " --json " + json1 + " --sarif " + sarif1).exit_code, 1);
  EXPECT_EQ(run_chklint(args + " --json " + json2 + " --sarif " + sarif2).exit_code, 1);

  const std::string json_a = slurp(json1);
  EXPECT_EQ(json_a, slurp(json2));
  EXPECT_EQ(slurp(sarif1), slurp(sarif2));

  // Spot-check the JSON shape without a parser dependency.
  EXPECT_NE(json_a.find("\"tool\": \"chklint\""), std::string::npos) << json_a;
  EXPECT_NE(json_a.find("\"finding_count\": 2"), std::string::npos) << json_a;
  EXPECT_NE(json_a.find("\"rule\": \"unique-fork-tags\""), std::string::npos) << json_a;
  const std::string sarif_a = slurp(sarif1);
  EXPECT_NE(sarif_a.find("\"version\": \"2.1.0\""), std::string::npos) << sarif_a;
  EXPECT_NE(sarif_a.find("\"ruleId\": \"unique-fork-tags\""), std::string::npos)
      << sarif_a;
}

TEST(ChklintReports, FindingsAreSortedByPathLineRule) {
  const std::string json_path = testing::TempDir() + "chklint_sorted.json";
  EXPECT_EQ(run_chklint(fixture("bad_fork_tags") + " -q --json " + json_path).exit_code,
            1);
  const std::string doc = slurp(json_path);
  const std::size_t first = doc.find("src/faultsim/quake.cpp");
  const std::size_t second = doc.find("src/timers.cpp");
  ASSERT_NE(first, std::string::npos) << doc;
  ASSERT_NE(second, std::string::npos) << doc;
  EXPECT_LT(first, second) << doc;
}
