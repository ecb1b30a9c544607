#ifndef PCPDA_WORKLOAD_SCENARIO_H_
#define PCPDA_WORKLOAD_SCENARIO_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "txn/spec.h"

namespace pcpda {

/// A 1-based line:column position in scenario source text. Parser errors
/// and lint diagnostics (src/lint/) anchor on it. Line 0 means
/// "synthetic": the scenario was built in memory, not parsed.
struct SourceSpan {
  int line = 0;
  int column = 0;

  bool valid() const { return line > 0; }
  /// "12:5", or "?" for a synthetic span.
  std::string DebugString() const;

  friend bool operator==(const SourceSpan&, const SourceSpan&) = default;
};

/// One assertion from the optional `expect` block: the declared ceiling
/// of `item` equals the priority of `txn` ("dummy" asserts no ceiling).
/// Names are kept unresolved — the linter resolves and checks them, so a
/// dangling reference is a lint error with a span, not a parse error.
struct CeilingExpectation {
  /// Wceil when true (the `wceil` keyword), Aceil otherwise (`aceil`).
  bool write_ceiling = true;
  std::string item;
  std::string txn;
  SourceSpan span;
};

/// Source locations of parsed entities, keyed so they survive the
/// priority reordering TransactionSet::Create applies. All maps are
/// empty for scenarios assembled in memory.
struct ScenarioSpans {
  SourceSpan horizon;
  /// Item name -> span of its declaration (or first use).
  std::map<std::string, SourceSpan> items;
  /// Txn name -> span of its `txn` header line.
  std::map<std::string, SourceSpan> txns;
  /// Txn name -> per-step spans, parallel to the spec body.
  std::map<std::string, std::vector<SourceSpan>> steps;
  /// Parallel to Scenario::faults.faults.
  std::vector<SourceSpan> faults;
};

/// A transaction-set scenario parsed from the line-oriented text format
/// (see ParseScenario). Lets workloads live in files instead of C++ —
/// the paper's worked examples ship as .scn files under scenarios/.
struct Scenario {
  std::string name;
  TransactionSet set;
  /// Simulation horizon; 0 means "caller decides".
  Tick horizon = 0;
  /// Item name -> id, in declaration order.
  std::map<std::string, ItemId> items;
  /// Fault plan from the `faults ... end` block; empty when absent.
  FaultConfig faults;
  /// Ceiling assertions from `expect` blocks, in declaration order.
  /// Checked by the linter, ignored by the simulator; the Scenario
  /// overload of FormatScenario round-trips them (item names mapped to
  /// the d<id> names the formatter emits).
  std::vector<CeilingExpectation> expects;
  /// Source spans for diagnostics; empty when built in memory.
  ScenarioSpans spans;
};

/// Parses the scenario text format:
///
///   # comment (blank lines ignored)
///   scenario <name>
///   horizon <ticks>
///   priority as-listed | rate-monotonic     (default rate-monotonic)
///   item <name>                             (optional pre-declaration)
///   txn <name> [period=<n>] [offset=<n>] [deadline=<n>]
///     read <item> [<duration>]
///     write <item> [<duration>]
///     compute <duration>
///   end
///   faults [seed=<n>]                        (optional, at most one)
///     abort <txn|*> at=<tick>|prob=<p>
///     restart <txn|*> at=<tick>|prob=<p>
///     overrun <txn|*> by=<ticks> at=<tick>|prob=<p>
///     delay <txn|*> upto=<ticks> at=<tick>|prob=<p>
///     burst <txn|*> count=<n> at=<tick>|prob=<p>
///   end
///   expect                                   (optional, lint assertions)
///     wceil <item> <txn|dummy>
///     aceil <item> <txn|dummy>
///   end
///
/// Items are auto-declared on first use, ids assigned in order of
/// appearance. Fault targets are txn names (resolved after priority
/// assignment) or `*` for any. Errors carry the offending line:column
/// position ("line 12:5: ...").
StatusOr<Scenario> ParseScenario(const std::string& text);

/// Reads a scenario file's text. NotFound when `path` cannot be opened,
/// InvalidArgument when it is not a regular file (a directory would
/// otherwise read as an empty scenario).
StatusOr<std::string> ReadScenarioFile(const std::string& path);

/// Reads and parses a scenario file.
StatusOr<Scenario> LoadScenarioFile(const std::string& path);

/// The `*.scn` regular files directly under `dir`, sorted by path.
/// Subdirectories and other non-regular entries are skipped whatever
/// their name. NotFound when `dir` cannot be listed.
StatusOr<std::vector<std::string>> ListScenarioFiles(const std::string& dir);

/// Renders a transaction set back into the scenario format (round-trips
/// through ParseScenario).
std::string FormatScenario(const std::string& name,
                           const TransactionSet& set, Tick horizon);

/// Same, for a full scenario: appends the `faults` and `expect` blocks
/// when present (expectation item names are mapped to the d<id> names
/// the formatter emits; unresolved names are kept verbatim).
std::string FormatScenario(const Scenario& scenario);

}  // namespace pcpda

#endif  // PCPDA_WORKLOAD_SCENARIO_H_
