// rdfrel-lint self-test: drives the real binary over the fixture pairs in
// tests/compilefail/ and asserts the EXACT diagnostic set — rule IDs and
// line numbers — against the `// lint-expect: <rule>` comments embedded in
// each violation fixture. Asserting exact lines (not just exit codes) is
// what pins the public contract: a rule that fires one line off, under a
// different ID, or twice per site would still flip the exit code but break
// every suppression comment and CI annotation users have written against
// it.
//
// The binary path and fixture directory arrive via compile definitions
// (RDFREL_LINT_BIN, RDFREL_LINT_FIXTURE_DIR) from tests/CMakeLists.txt.
// All runs force --engine=lite: the lexical engine ships in every build,
// so the assertions hold on toolchains with and without libclang.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

RunResult RunLint(const std::string& args) {
  RunResult r;
  std::string cmd = std::string(RDFREL_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.stdout_text.append(buf, n);
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string FixturePath(const std::string& name) {
  return std::string(RDFREL_LINT_FIXTURE_DIR) + "/" + name;
}

/// (line, rule) pairs expected for a fixture, read from its own
/// `// lint-expect: <rule>` comments.
std::set<std::pair<int, std::string>> ExpectedDiags(const std::string& path) {
  std::set<std::pair<int, std::string>> out;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open fixture " << path;
  std::string line;
  int lineno = 0;
  const std::string marker = "// lint-expect: ";
  while (std::getline(in, line)) {
    ++lineno;
    size_t pos = line.find(marker);
    if (pos == std::string::npos) continue;
    std::string rule = line.substr(pos + marker.size());
    while (!rule.empty() && (rule.back() == ' ' || rule.back() == '\r')) {
      rule.pop_back();
    }
    out.insert({lineno, rule});
  }
  return out;
}

/// (line, rule) pairs the tool actually reported, parsed from
/// `<file>:<line>: error: [<rule>] <message>` output lines.
std::set<std::pair<int, std::string>> ReportedDiags(const std::string& text) {
  std::set<std::pair<int, std::string>> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t colon1 = line.find(':');
    if (colon1 == std::string::npos) continue;
    size_t colon2 = line.find(':', colon1 + 1);
    if (colon2 == std::string::npos) continue;
    int lineno = std::atoi(line.substr(colon1 + 1, colon2 - colon1 - 1).c_str());
    size_t open = line.find('[', colon2);
    size_t close = line.find(']', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    out.insert({lineno, line.substr(open + 1, close - open - 1)});
  }
  return out;
}

void ExpectExactDiagnostics(const std::string& fixture) {
  const std::string path = FixturePath(fixture);
  auto expected = ExpectedDiags(path);
  ASSERT_FALSE(expected.empty())
      << fixture << " carries no lint-expect comments";
  RunResult r = RunLint("--engine=lite " + path);
  EXPECT_EQ(r.exit_code, 1) << fixture << " must make the lint exit 1";
  auto reported = ReportedDiags(r.stdout_text);
  EXPECT_EQ(reported, expected)
      << "diagnostic set mismatch for " << fixture << "\noutput:\n"
      << r.stdout_text;
}

void ExpectClean(const std::string& fixture) {
  RunResult r = RunLint("--engine=lite " + FixturePath(fixture));
  EXPECT_EQ(r.exit_code, 0) << fixture << " must be clean\noutput:\n"
                            << r.stdout_text;
  EXPECT_TRUE(r.stdout_text.empty()) << r.stdout_text;
}

TEST(LintFixtureTest, BlockingUnderLockViolationsExactLines) {
  ExpectExactDiagnostics("blocking_under_lock_violation.cc");
}
TEST(LintFixtureTest, BlockingUnderLockCleanTwin) {
  ExpectClean("blocking_under_lock_clean.cc");
}

TEST(LintFixtureTest, BorrowedBatchViolationsExactLines) {
  ExpectExactDiagnostics("borrowed_batch_violation.cc");
}
TEST(LintFixtureTest, BorrowedBatchCleanTwin) {
  ExpectClean("borrowed_batch_clean.cc");
}

TEST(LintFixtureTest, StatusDisciplineViolationsExactLines) {
  ExpectExactDiagnostics("status_discipline_violation.cc");
}
TEST(LintFixtureTest, StatusDisciplineCleanTwin) {
  ExpectClean("status_discipline_clean.cc");
}

TEST(LintFixtureTest, ListRulesNamesEveryRule) {
  RunResult r = RunLint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  std::istringstream in(r.stdout_text);
  std::set<std::string> rules;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rules.insert(line);
  }
  EXPECT_EQ(rules, (std::set<std::string>{"blocking-under-lock",
                                          "borrowed-batch",
                                          "status-discipline"}));
}

TEST(LintFixtureTest, RulesFlagRestrictsDiagnostics) {
  // With only borrowed-batch on, the status fixture must come back clean.
  RunResult r = RunLint("--engine=lite --rules=borrowed-batch " +
                        FixturePath("status_discipline_violation.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;
}

class SuppressionTest : public ::testing::Test {
 protected:
  std::string path_;

  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  /// Writes \p text to a file named after the running test, so cases run
  /// concurrently (ctest -j) never share a fixture file.
  void WriteSource(const std::string& text) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/lint_suppression_" + info->name() +
            ".cc";
    std::ofstream out(path_);
    ASSERT_TRUE(out.is_open());
    out << text;
  }
};

TEST_F(SuppressionTest, AllowCommentWithReasonSilencesTheLine) {
  WriteSource(
      "void Caller();\n"
      "int Drop() {\n"
      "  // rdfrel-lint: allow(status-discipline): fixture reason\n"
      "  (void)Caller();\n"
      "  return 0;\n"
      "}\n");
  RunResult r = RunLint("--engine=lite " + path_);
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;

  // --no-suppress reinstates the diagnostic: the comment only hides it.
  RunResult raw = RunLint("--engine=lite --no-suppress " + path_);
  EXPECT_EQ(raw.exit_code, 1);
  auto reported = ReportedDiags(raw.stdout_text);
  EXPECT_EQ(reported,
            (std::set<std::pair<int, std::string>>{{4, "status-discipline"}}));
}

TEST_F(SuppressionTest, AllowCommentWithoutReasonIsIgnored) {
  WriteSource(
      "void Caller();\n"
      "int Drop() {\n"
      "  // rdfrel-lint: allow(status-discipline):\n"
      "  (void)Caller();\n"
      "  return 0;\n"
      "}\n");
  RunResult r = RunLint("--engine=lite " + path_);
  EXPECT_EQ(r.exit_code, 1) << "a reason-less suppression must not count";
}

TEST_F(SuppressionTest, MultiLineReasonCarriesToFirstCodeLine) {
  WriteSource(
      "void Caller();\n"
      "int Drop() {\n"
      "  // rdfrel-lint: allow(status-discipline): the reason starts here\n"
      "  // and keeps going on a continuation comment line\n"
      "  (void)Caller();\n"
      "  return 0;\n"
      "}\n");
  RunResult r = RunLint("--engine=lite " + path_);
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;
}

}  // namespace
