#include "lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "analysis/blocking.h"
#include "analysis/response_time.h"
#include "analysis/rm_bound.h"
#include "common/strings.h"
#include "db/ceilings.h"

namespace pcpda {
namespace {

/// Shared context for one analysis: the scenario plus lookup helpers the
/// rules use to name entities and anchor spans.
class Linter {
 public:
  Linter(const Scenario& scenario, const LintOptions& options)
      : scenario_(scenario), options_(options) {
    for (const auto& [item_name, id] : scenario.items) {
      item_names_[id] = item_name;
    }
  }

  LintReport Run() {
    CheckCeilings();
    CheckNesting();
    CheckDeadlock();
    CheckDeadEntities();
    if (options_.schedulability) CheckSchedulability();
    Finish();
    report_.scenario = scenario_.name;
    return std::move(report_);
  }

 private:
  // --- helpers ------------------------------------------------------------

  std::string ItemName(ItemId item) const {
    const auto it = item_names_.find(item);
    // FormatScenario's synthetic naming, for in-memory scenarios.
    return it != item_names_.end() ? it->second
                                   : StrFormat("d%d", item);
  }

  SourceSpan TxnSpan(const std::string& txn) const {
    const auto it = scenario_.spans.txns.find(txn);
    return it != scenario_.spans.txns.end() ? it->second : SourceSpan{};
  }

  SourceSpan StepSpan(const std::string& txn, std::size_t index) const {
    const auto it = scenario_.spans.steps.find(txn);
    if (it == scenario_.spans.steps.end() || index >= it->second.size()) {
      return SourceSpan{};
    }
    return it->second[index];
  }

  SourceSpan ItemSpan(ItemId item) const {
    const auto name = item_names_.find(item);
    if (name == item_names_.end()) return SourceSpan{};
    const auto it = scenario_.spans.items.find(name->second);
    return it != scenario_.spans.items.end() ? it->second : SourceSpan{};
  }

  void Add(std::string rule, LintSeverity severity, SourceSpan span,
           std::string entity, std::string message) {
    if (severity == LintSeverity::kNote && !options_.include_notes) return;
    report_.diagnostics.push_back(LintDiagnostic{
        std::move(rule), severity, span, std::move(message),
        std::move(entity)});
  }

  /// "priority of T2" / "dummy".
  std::string PriorityName(Priority p) const {
    if (p.is_dummy()) return "dummy";
    const TransactionSet& set = scenario_.set;
    for (SpecId i = 0; i < set.size(); ++i) {
      if (set.priority(i) == p) {
        return "priority of " + set.spec(i).name;
      }
    }
    return StrFormat("priority level %d", p.level());
  }

  // --- Wceil / Aceil recomputation and `expect` assertions ----------------

  void CheckCeilings() {
    const TransactionSet& set = scenario_.set;
    const ItemId items = set.item_count();
    // Declared-but-unaccessed items carry ids past item_count(); size
    // for them so `expect` lines on such items resolve to dummy.
    ItemId ceiling_slots = items;
    for (const auto& [item_name, id] : scenario_.items) {
      ceiling_slots = std::max(ceiling_slots, id + 1);
    }
    // Recomputed independently of StaticCeilings, straight from the raw
    // read/write sets, so the two implementations check each other.
    std::vector<Priority> wceil(ceiling_slots, Priority::Dummy());
    std::vector<Priority> aceil(ceiling_slots, Priority::Dummy());
    for (SpecId i = 0; i < set.size(); ++i) {
      for (ItemId item : set.WriteSet(i)) {
        wceil[item] = Max(wceil[item], set.priority(i));
        aceil[item] = Max(aceil[item], set.priority(i));
      }
      for (ItemId item : set.ReadSet(i)) {
        aceil[item] = Max(aceil[item], set.priority(i));
      }
    }

    const StaticCeilings ceilings(set);
    for (ItemId item = 0; item < items; ++item) {
      if (ceilings.Wceil(item) != wceil[item]) {
        Add("ceiling-internal", LintSeverity::kError, ItemSpan(item),
            ItemName(item),
            StrFormat("StaticCeilings::Wceil(%s) is %s but the raw write "
                      "sets give %s (library bug)",
                      ItemName(item).c_str(),
                      PriorityName(ceilings.Wceil(item)).c_str(),
                      PriorityName(wceil[item]).c_str()));
      }
      if (ceilings.Aceil(item) != aceil[item]) {
        Add("ceiling-internal", LintSeverity::kError, ItemSpan(item),
            ItemName(item),
            StrFormat("StaticCeilings::Aceil(%s) is %s but the raw "
                      "access sets give %s (library bug)",
                      ItemName(item).c_str(),
                      PriorityName(ceilings.Aceil(item)).c_str(),
                      PriorityName(aceil[item]).c_str()));
      }
    }

    for (const CeilingExpectation& expect : scenario_.expects) {
      const char* kind = expect.write_ceiling ? "wceil" : "aceil";
      const auto item_it = scenario_.items.find(expect.item);
      if (item_it == scenario_.items.end()) {
        Add("expect-unknown-item", LintSeverity::kError, expect.span,
            expect.item,
            StrFormat("expect %s references unknown item '%s'", kind,
                      expect.item.c_str()));
        continue;
      }
      Priority expected = Priority::Dummy();
      if (expect.txn != "dummy") {
        SpecId spec = kInvalidSpec;
        for (SpecId i = 0; i < set.size(); ++i) {
          if (set.spec(i).name == expect.txn) {
            spec = i;
            break;
          }
        }
        if (spec == kInvalidSpec) {
          Add("expect-unknown-txn", LintSeverity::kError, expect.span,
              expect.txn,
              StrFormat("expect %s references unknown txn '%s'", kind,
                        expect.txn.c_str()));
          continue;
        }
        expected = set.priority(spec);
      }
      const ItemId item = item_it->second;
      const Priority actual =
          expect.write_ceiling ? wceil[item] : aceil[item];
      if (actual == expected) continue;
      const char* fn = expect.write_ceiling ? "Wceil" : "Aceil";
      std::string message = StrFormat(
          "expect %s %s = %s, but %s(%s) is %s", kind,
          expect.item.c_str(), PriorityName(expected).c_str(), fn,
          expect.item.c_str(), PriorityName(actual).c_str());
      if (actual.is_dummy()) {
        message += expect.write_ceiling ? " (no txn writes it)"
                                        : " (no txn accesses it)";
      }
      Add(expect.write_ceiling ? "wceil-mismatch" : "aceil-mismatch",
          LintSeverity::kError, expect.span, expect.item,
          std::move(message));
    }
  }

  // --- critical-section nesting -------------------------------------------

  /// First/last body index touching each item, and whether any touch
  /// writes. Under every protocol here locks are held from first access
  /// until commit (or CCP's shrinking phase), so [first, last] is the
  /// item's critical section as the paper's nested-CS reasoning sees it.
  struct ItemUse {
    int first = -1;
    int last = -1;
    bool writes = false;
  };

  static std::map<ItemId, ItemUse> UsesOf(const TransactionSpec& spec) {
    std::map<ItemId, ItemUse> uses;
    for (std::size_t i = 0; i < spec.body.size(); ++i) {
      const Step& step = spec.body[i];
      if (step.kind == StepKind::kCompute) continue;
      ItemUse& use = uses[step.item];
      if (use.first < 0) use.first = static_cast<int>(i);
      use.last = static_cast<int>(i);
      use.writes |= step.kind == StepKind::kWrite;
    }
    return uses;
  }

  void CheckNesting() {
    const TransactionSet& set = scenario_.set;
    for (SpecId i = 0; i < set.size(); ++i) {
      const TransactionSpec& spec = set.spec(i);
      for (std::size_t j = 1; j < spec.body.size(); ++j) {
        const Step& prev = spec.body[j - 1];
        const Step& step = spec.body[j];
        if (step.kind == StepKind::kCompute ||
            prev.kind != step.kind || prev.item != step.item) {
          continue;
        }
        Add("duplicate-access", LintSeverity::kWarning,
            StepSpan(spec.name, j), spec.name,
            StrFormat("%s re-%ss %s in adjacent steps; the lock is "
                      "already held — merge them into one step",
                      spec.name.c_str(),
                      step.kind == StepKind::kRead ? "read" : "write",
                      ItemName(step.item).c_str()));
      }

      const std::map<ItemId, ItemUse> uses = UsesOf(spec);
      for (auto a = uses.begin(); a != uses.end(); ++a) {
        for (auto b = std::next(a); b != uses.end(); ++b) {
          // Order the pair by first access; crossing means the earlier
          // section ends strictly inside the later one.
          const auto& [outer_item, outer] =
              a->second.first <= b->second.first ? *a : *b;
          const auto& [inner_item, inner] =
              a->second.first <= b->second.first ? *b : *a;
          if (inner.first <= outer.last && outer.last < inner.last) {
            Add("cs-overlap", LintSeverity::kWarning,
                StepSpan(spec.name,
                         static_cast<std::size_t>(inner.first)),
                spec.name,
                StrFormat("in %s the critical sections of %s (steps "
                          "%d-%d) and %s (steps %d-%d) interleave "
                          "without nesting",
                          spec.name.c_str(),
                          ItemName(outer_item).c_str(), outer.first + 1,
                          outer.last + 1, ItemName(inner_item).c_str(),
                          inner.first + 1, inner.last + 1));
          }
        }
      }
    }
  }

  // --- static wait-for cycle detection ------------------------------------

  void CheckDeadlock() {
    const TransactionSet& set = scenario_.set;
    const SpecId n = set.size();
    std::vector<std::map<ItemId, ItemUse>> uses;
    uses.reserve(static_cast<std::size_t>(n));
    for (SpecId i = 0; i < n; ++i) uses.push_back(UsesOf(set.spec(i)));

    // holds_before[i][x]: T_i can hold some other item when it first
    // requests x. waits_after[i][x]: T_i can still be requesting other
    // items after it acquired x (so it can hold x while blocked).
    auto holds_before = [&uses](SpecId i, ItemId x) {
      const int first = uses[static_cast<std::size_t>(i)].at(x).first;
      for (const auto& [item, use] :
           uses[static_cast<std::size_t>(i)]) {
        if (item != x && use.first < first) return true;
      }
      return false;
    };
    auto waits_after = [&uses](SpecId i, ItemId x) {
      const int first = uses[static_cast<std::size_t>(i)].at(x).first;
      for (const auto& [item, use] :
           uses[static_cast<std::size_t>(i)]) {
        if (item != x && use.last > first) return true;
      }
      return false;
    };

    // edge[a][b]: T_a can block on an item T_b holds, while T_a itself
    // holds a lock — the static over-approximation of a wait-for edge
    // under held-to-commit locking with exclusive conflicts.
    std::vector<std::vector<bool>> edge(
        static_cast<std::size_t>(n),
        std::vector<bool>(static_cast<std::size_t>(n), false));
    std::map<std::pair<SpecId, SpecId>, std::set<ItemId>> edge_items;
    for (SpecId a = 0; a < n; ++a) {
      for (SpecId b = 0; b < n; ++b) {
        if (a == b) continue;
        for (const auto& [item, use_a] :
             uses[static_cast<std::size_t>(a)]) {
          const auto it_b =
              uses[static_cast<std::size_t>(b)].find(item);
          if (it_b == uses[static_cast<std::size_t>(b)].end()) continue;
          if (!use_a.writes && !it_b->second.writes) continue;
          if (!holds_before(a, item) || !waits_after(b, item)) continue;
          edge[static_cast<std::size_t>(a)]
              [static_cast<std::size_t>(b)] = true;
          edge_items[{a, b}].insert(item);
        }
      }
    }

    // Transitive closure; mutually reachable specs form a potential
    // wait-for cycle. Spec counts are small, so O(n^3) is fine.
    std::vector<std::vector<bool>> reach = edge;
    for (SpecId k = 0; k < n; ++k) {
      for (SpecId a = 0; a < n; ++a) {
        if (!reach[static_cast<std::size_t>(a)]
                  [static_cast<std::size_t>(k)]) {
          continue;
        }
        for (SpecId b = 0; b < n; ++b) {
          if (reach[static_cast<std::size_t>(k)]
                   [static_cast<std::size_t>(b)]) {
            reach[static_cast<std::size_t>(a)]
                 [static_cast<std::size_t>(b)] = true;
          }
        }
      }
    }

    std::vector<bool> reported(static_cast<std::size_t>(n), false);
    for (SpecId a = 0; a < n; ++a) {
      if (reported[static_cast<std::size_t>(a)]) continue;
      std::vector<SpecId> cycle{a};
      for (SpecId b = a + 1; b < n; ++b) {
        if (reach[static_cast<std::size_t>(a)]
                 [static_cast<std::size_t>(b)] &&
            reach[static_cast<std::size_t>(b)]
                 [static_cast<std::size_t>(a)]) {
          cycle.push_back(b);
        }
      }
      if (cycle.size() < 2) continue;
      for (SpecId member : cycle) {
        reported[static_cast<std::size_t>(member)] = true;
      }
      std::set<ItemId> items;
      std::vector<std::string> names;
      for (SpecId member : cycle) {
        names.push_back(set.spec(member).name);
        for (SpecId other : cycle) {
          const auto it = edge_items.find({member, other});
          if (it != edge_items.end()) {
            items.insert(it->second.begin(), it->second.end());
          }
        }
      }
      std::vector<std::string> item_names;
      for (ItemId item : items) item_names.push_back(ItemName(item));
      std::vector<std::string> vulnerable;
      for (ProtocolKind kind : AllProtocolKinds()) {
        if (!TraitsOf(kind).deadlock_free) {
          vulnerable.push_back(ToString(kind));
        }
      }
      Add("potential-deadlock", LintSeverity::kWarning,
          TxnSpan(set.spec(cycle.front()).name),
          set.spec(cycle.front()).name,
          StrFormat("potential wait-for cycle among %s on item(s) %s: "
                    "%s can deadlock here (2PL-HP restarts through it; "
                    "ceiling protocols are immune by Theorem 2)",
                    Join(names, ", ").c_str(),
                    Join(item_names, ", ").c_str(),
                    Join(vulnerable, ", ").c_str()));
    }
  }

  // --- dead entities ------------------------------------------------------

  void CheckDeadEntities() {
    const TransactionSet& set = scenario_.set;
    std::set<ItemId> touched;
    for (SpecId i = 0; i < set.size(); ++i) {
      const std::set<ItemId> access = set.spec(i).AccessSet();
      touched.insert(access.begin(), access.end());
    }
    for (const auto& [item_name, id] : scenario_.items) {
      if (touched.count(id) != 0) continue;
      Add("unused-item", LintSeverity::kWarning,
          ItemSpan(id), item_name,
          StrFormat("item %s is declared but no txn reads or writes it",
                    item_name.c_str()));
    }

    for (SpecId i = 0; i < set.size(); ++i) {
      const TransactionSpec& spec = set.spec(i);
      if (scenario_.horizon > 0 && spec.offset >= scenario_.horizon) {
        Add("txn-beyond-horizon", LintSeverity::kWarning,
            TxnSpan(spec.name), spec.name,
            StrFormat("%s first releases at tick %lld, at or past the "
                      "horizon %lld — it never runs",
                      spec.name.c_str(),
                      static_cast<long long>(spec.offset),
                      static_cast<long long>(scenario_.horizon)));
      }
      const Tick deadline = set.RelativeDeadline(i);
      if (deadline != kNoTick && spec.ExecutionTime() > deadline) {
        Add("overlong-body", LintSeverity::kWarning, TxnSpan(spec.name),
            spec.name,
            StrFormat("%s needs %lld ticks of execution but its "
                      "deadline is %lld — it can never finish in time",
                      spec.name.c_str(),
                      static_cast<long long>(spec.ExecutionTime()),
                      static_cast<long long>(deadline)));
      }
    }

    for (std::size_t f = 0; f < scenario_.faults.faults.size(); ++f) {
      const FaultSpec& fault = scenario_.faults.faults[f];
      if (scenario_.horizon <= 0 || fault.at == kNoTick ||
          fault.at < scenario_.horizon) {
        continue;
      }
      const SourceSpan span = f < scenario_.spans.faults.size()
                                  ? scenario_.spans.faults[f]
                                  : SourceSpan{};
      const std::string target = fault.spec == kInvalidSpec
                                     ? "*"
                                     : set.spec(fault.spec).name;
      Add("fault-beyond-horizon", LintSeverity::kWarning, span, target,
          StrFormat("%s fault on %s fires at tick %lld, at or past the "
                    "horizon %lld — it never triggers",
                    ToString(fault.kind), target.c_str(),
                    static_cast<long long>(fault.at),
                    static_cast<long long>(scenario_.horizon)));
    }
  }

  // --- blocking-term and schedulability pre-checks ------------------------

  void CheckSchedulability() {
    const TransactionSet& set = scenario_.set;
    bool periodic = set.size() > 0;
    bool rm_ordered = true;
    for (SpecId i = 0; i < set.size(); ++i) {
      if (set.spec(i).period <= 0) periodic = false;
      if (i > 0 && set.spec(i).period < set.spec(i - 1).period) {
        rm_ordered = false;
      }
    }
    if (!periodic || !rm_ordered) {
      Add("analysis-skipped", LintSeverity::kNote, SourceSpan{}, "",
          periodic ? "schedulability pre-check skipped: priorities are "
                     "not rate-monotonic"
                   : "schedulability pre-check skipped: the set has "
                     "one-shot txns");
      return;
    }

    const double utilization = set.Utilization();
    if (utilization > 1.0 + 1e-9) {
      Add("utilization-overload", LintSeverity::kWarning,
          TxnSpan(set.spec(0).name), "",
          StrFormat("total utilization %.3f exceeds 1: the set "
                    "overloads the processor regardless of protocol",
                    utilization));
    }

    for (ProtocolKind kind : options_.analysis_protocols) {
      // ProtocolTraits::analyzable() is the single source of truth for
      // "has a finite blocking bound" — lint, pcpda_analyze and the
      // fuzzer oracle all gate on it.
      if (!TraitsOf(kind).analyzable()) continue;
      const BlockingAnalysis blocking = ComputeBlocking(set, kind);
      const SchedAnalysis sched = AnalyzeResponseTimes(set, blocking);
      const auto rm_bound = LiuLaylandTest(set, blocking.AllB());
      for (SpecId i = 0; i < set.size(); ++i) {
        const SpecSchedResult& spec_result =
            sched.per_spec[static_cast<std::size_t>(i)];
        const std::string& name = set.spec(i).name;
        if (spec_result.verdict == SchedVerdict::kUnschedulable) {
          const Tick deadline = set.RelativeDeadline(i);
          std::string response_text =
              spec_result.response == kNoTick
                  ? std::string("diverges")
                  : StrFormat("is %lld ticks",
                              static_cast<long long>(
                                  spec_result.response));
          Add("unschedulable", LintSeverity::kWarning, TxnSpan(name),
              name,
              StrFormat("%s: worst-case response %s under %s "
                        "(B=%lld), past the deadline %lld",
                        name.c_str(), response_text.c_str(),
                        ToString(kind),
                        static_cast<long long>(blocking.B(i)),
                        static_cast<long long>(deadline)));
        } else if (spec_result.verdict == SchedVerdict::kSchedulable &&
                   rm_bound.ok() &&
                   !rm_bound->per_spec[static_cast<std::size_t>(i)]
                        .schedulable) {
          Add("rm-bound-inconclusive", LintSeverity::kNote,
              TxnSpan(name), name,
              StrFormat("%s fails the Liu-Layland bound under %s but "
                        "passes exact response-time analysis (the "
                        "Section-9 bound is sufficient, not necessary)",
                        name.c_str(), ToString(kind)));
        }
      }
    }
  }

  /// Orders diagnostics by source position (synthetic spans last);
  /// stable, so same-line findings keep rule order.
  void Finish() {
    std::stable_sort(
        report_.diagnostics.begin(), report_.diagnostics.end(),
        [](const LintDiagnostic& a, const LintDiagnostic& b) {
          const int la = a.span.valid() ? a.span.line
                                        : std::numeric_limits<int>::max();
          const int lb = b.span.valid() ? b.span.line
                                        : std::numeric_limits<int>::max();
          if (la != lb) return la < lb;
          return a.span.column < b.span.column;
        });
  }

  const Scenario& scenario_;
  const LintOptions& options_;
  std::map<ItemId, std::string> item_names_;
  LintReport report_;
};

}  // namespace

LintReport LintScenario(const Scenario& scenario,
                        const LintOptions& options) {
  return Linter(scenario, options).Run();
}

LintReport LintScenarioText(const std::string& text,
                            const LintOptions& options) {
  auto scenario = ParseScenario(text);
  if (scenario.ok()) return LintScenario(*scenario, options);

  LintReport report;
  LintDiagnostic diagnostic;
  diagnostic.rule = "parse-error";
  diagnostic.severity = LintSeverity::kError;
  diagnostic.message = scenario.status().message();
  // Parser errors are prefixed "line L:C: ..."; lift the position into
  // the span so renderers can anchor it like any other diagnostic.
  int line = 0;
  int column = 0;
  int consumed = 0;
  if (std::sscanf(diagnostic.message.c_str(), "line %d:%d:%n", &line,
                  &column, &consumed) == 2 &&
      consumed > 0) {
    diagnostic.span = SourceSpan{line, column};
    std::string rest = diagnostic.message.substr(
        static_cast<std::size_t>(consumed));
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    diagnostic.message = std::move(rest);
  }
  report.diagnostics.push_back(std::move(diagnostic));
  return report;
}

StatusOr<LintReport> LintScenarioFile(const std::string& path,
                                      const LintOptions& options) {
  auto text = ReadScenarioFile(path);
  if (!text.ok()) return text.status();
  return LintScenarioText(*text, options);
}

LintOptions LintFilterOptions() {
  LintOptions options;
  options.schedulability = false;
  options.include_notes = false;
  options.analysis_protocols.clear();
  return options;
}

bool LintRejects(const Scenario& scenario) {
  return !LintScenario(scenario, LintFilterOptions()).clean();
}

}  // namespace pcpda
