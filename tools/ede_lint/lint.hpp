// ede_lint driver: file collection, include resolution, configuration,
// baseline handling, diagnostics output, and the fixture self-test.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "rules.hpp"

namespace ede::lint {

struct Options {
  std::string repo_root = ".";        // paths in diagnostics are relative to this
  std::vector<std::string> inputs;    // files or directories to lint
  std::string config_path;            // empty: <repo_root>/tools/ede_lint.conf if present
  std::string baseline_path;          // empty: <repo_root>/tools/ede_lint.baseline if present
  std::string write_baseline_path;    // non-empty: write and exit 0
  bool json = false;
  bool self_test = false;
  std::string fixtures_dir;           // for --self-test
  unsigned jobs = 0;                  // 0: hardware concurrency
};

/// Findings split against the baseline: `fresh` fails the run, `baselined`
/// is carried debt that does not.
struct LintResult {
  std::vector<Finding> fresh;
  std::vector<Finding> baselined;
};

[[nodiscard]] Config load_config(const std::string& path, std::string& error);

/// Parse `allow`/`ignore` lines from an in-memory config (exposed for the
/// self-test fixtures). A malformed line or unknown verb sets `error`
/// (the caller maps that to exit code 2, not "findings").
[[nodiscard]] Config parse_config(const std::string& text,
                                  std::string& error);

/// Lex every input (plus all project sources under <repo_root>/src and
/// <repo_root>/bench for index completeness), run the rules,
/// apply the baseline.
[[nodiscard]] LintResult run_lint(const Options& options, std::string& error);

/// Render diagnostics. JSON output is byte-stable across runs: findings
/// are sorted, paths are repo-relative with '/' separators, and nothing
/// time- or environment-dependent is emitted.
void print_text(const LintResult& result, std::ostream& out);
void print_json(const LintResult& result, std::ostream& out);

/// Serialize findings in baseline format (one `rule<TAB>file<TAB>message`
/// per line, sorted).
[[nodiscard]] std::string to_baseline(const std::vector<Finding>& findings);

/// Run the fixture self-test: every tests/lint_fixtures/*.{cpp,hpp} is
/// analyzed under its `// ede-lint-fixture: <virtual-path>` identity and
/// compared against its `.expect` sidecar. Returns the process exit code:
/// 0 all fixtures match, 1 expectation mismatches, 2 setup/IO error
/// (missing directory, unreadable fixture, missing identity marker).
[[nodiscard]] int run_self_test(const std::string& fixtures_dir,
                                std::ostream& out);

}  // namespace ede::lint
