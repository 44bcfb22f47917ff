// Shared diagnostics engine of the static-analysis subsystem (`peppher-lint`
// and the compose pipeline's fail-fast checks).
//
// Every finding is a Diagnostic: a stable PL0xx code, a severity, a message
// and an XML source location (file + 1-based line/column). The same engine
// renders three output formats — human-readable text, a JSON array, and
// SARIF 2.1.0 — so editors, CI systems and humans all consume one stream.
//
// Code ranges (catalogued in docs/lint.md):
//   PL000         descriptor or dispatch table failed to parse at all
//   PL001..PL009  interface/implementation signature & access-mode checks
//   PL010..PL019  platform feasibility
//   PL024..PL029  dispatch-table coverage (PL020..PL023 retired)
//   PL030..PL039  task-graph hazards
//   PL040..PL051  repository structure (Repository::diagnose)
//   PL052..PL059  placement / transfer smells
//   PL060..PL069  coherence verification (peppher-verify, docs/verify.md)
//   PL070..PL077  static cost prediction (peppher-predict, docs/predict.md)
//   PF001..PF007  runtime-trace analyses (peppher-perf, docs/perf.md)
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace peppher::diag {

enum class Severity {
  kNote,     ///< informational; never affects exit status
  kWarning,  ///< suspicious but composable; fatal only under --werror
  kError,    ///< miscomposes or races at runtime; always fatal
};

std::string_view to_string(Severity severity) noexcept;

/// Where in a descriptor file a diagnostic points. Line/column are 1-based;
/// 0 means unknown (e.g. a descriptor built programmatically).
struct SourceLocation {
  std::string file;
  int line = 0;
  int column = 0;

  bool known() const noexcept { return !file.empty() || line > 0; }

  /// "file:12:3", "file", "line 12" or "" depending on what is known.
  std::string to_string() const;
};

/// One finding of the static analysis.
struct Diagnostic {
  std::string code;  ///< stable "PL0xx" identifier
  Severity severity = Severity::kWarning;
  std::string message;
  SourceLocation location;

  /// "file:12:3: error: message [PL031]" (location omitted when unknown).
  std::string format() const;
};

/// Collects diagnostics; the checks append, the drivers render.
class DiagnosticBag {
 public:
  void add(Diagnostic d) { diagnostics_.push_back(std::move(d)); }
  void add(std::string code, Severity severity, std::string message,
           SourceLocation location = {});

  void merge(std::vector<Diagnostic> other);

  /// Stable order for golden tests: by file, then line, then column, then
  /// code, preserving insertion order within ties.
  void sort();

  const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  bool empty() const noexcept { return diagnostics_.empty(); }
  std::size_t count(Severity severity) const noexcept;
  bool has_errors() const noexcept { return count(Severity::kError) > 0; }

  /// True if the bag should fail the build: any error, or any warning when
  /// `werror` is set.
  bool fails(bool werror) const noexcept;

  /// One line per diagnostic (Diagnostic::format), plus a trailing summary
  /// line ("3 error(s), 1 warning(s)") when the bag is non-empty.
  std::string format_text() const;

  /// JSON array of {code, severity, message, file, line, column}.
  std::string format_json() const;

  /// Minimal valid SARIF 2.1.0 log (one run, one result per diagnostic,
  /// rule metadata from the code registry).
  std::string format_sarif() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// Registry entry for one stable diagnostic code. This table is the single
/// source of truth for code metadata: the SARIF renderer's rules section,
/// `peppher-lint --explain`, and the tables in docs/lint.md all derive from
/// it (a test checks the docs against the registry).
struct CodeInfo {
  std::string_view code;
  Severity severity = Severity::kWarning;  ///< severity the checks emit
  std::string_view summary;      ///< one-line description (docs, SARIF rules)
  std::string_view remediation;  ///< how to fix it (--explain)
};

/// All registered PL0xx codes, ascending.
const std::vector<CodeInfo>& all_codes();

/// Registry entry for `code`, or nullptr if the code is unknown.
const CodeInfo* find_code(std::string_view code);

/// Summary for `code`, or "" if the code is unknown.
std::string_view code_summary(std::string_view code);

/// `--explain=CODE` of the command-line tools: prints the code's severity,
/// summary and remediation, or one line per registered code for "all", and
/// returns 0. For an unknown code, prints "<tool>: unknown diagnostic code"
/// pointing at `docs` to stderr and returns 2 (a usage error).
int explain(std::string_view tool, std::string_view code,
            std::string_view docs);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view raw);

}  // namespace peppher::diag
