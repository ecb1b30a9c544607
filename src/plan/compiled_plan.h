#ifndef PCPDA_PLAN_COMPILED_PLAN_H_
#define PCPDA_PLAN_COMPILED_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "db/ceilings.h"
#include "sim/calendar.h"
#include "workload/scenario.h"

namespace pcpda {

struct CompileOptions {
  /// Run the static analyzer as a compile gate: scenarios with lint
  /// errors are refused (InvalidArgument carrying the rendered report).
  /// Callers that have already linted — or that compile generated
  /// workloads the generator guarantees well-formed — turn this off
  /// (or call CompiledPlan::CompileUnlinted). With lint off, Compile
  /// cannot fail.
  bool lint = true;
};

/// The one horizon resolution every runner shares: the scenario's
/// declared horizon, else twice the hyperperiod, else 0 when neither is
/// usable (no periodic transactions, or a hyperperiod too large to
/// double). CompiledPlan::horizon() caches it.
Tick DefaultHorizon(const Scenario& scenario);

/// The compile-once/execute-many artifact of ROADMAP item 4: everything
/// that is static per scenario, lowered exactly once.
///
///   * the parsed scenario itself (owned; entity ids — specs, items —
///     are already dense [0, N) indexes in this codebase, so no extra
///     remap table is needed);
///   * the static priority ceilings (Wceil/Aceil plus writer/reader
///     tables) the protocols consult on every lock decision;
///   * the arrival calendar with a prebuilt cursor heap, copied (O(specs))
///     into each run instead of being reconstructed;
///   * per-spec read/write access bitsets (one 64-bit word block per
///     spec), the dense form of the access sets the lint pass derives —
///     shared by analyses that would otherwise re-walk std::set<ItemId>.
///
/// A CompiledPlan is an immutable value: the state lives behind a shared
/// pointer, so copies are cheap and a grid of concurrent runs can share
/// one plan without synchronization. Pointers and references obtained
/// from accessors stay valid for the lifetime of any copy.
class CompiledPlan {
 public:
  /// An empty plan (ok() == false); Compile is the real constructor.
  CompiledPlan() = default;

  /// Lowers a parsed scenario. The scenario is moved into the plan.
  static StatusOr<CompiledPlan> Compile(Scenario scenario,
                                        const CompileOptions& options = {});
  /// Compile with the lint gate off, which cannot fail: for callers that
  /// have already linted, or that lower generated workloads.
  static CompiledPlan CompileUnlinted(Scenario scenario);
  /// Convenience for generated workloads: wraps a bare TransactionSet
  /// into a scenario named `name` and compiles it.
  static StatusOr<CompiledPlan> Compile(std::string name,
                                        TransactionSet set, Tick horizon,
                                        const CompileOptions& options = {});

  bool ok() const { return impl_ != nullptr; }

  const Scenario& scenario() const { return impl().scenario; }
  const TransactionSet& set() const { return impl().scenario.set; }
  const StaticCeilings& ceilings() const { return impl().ceilings; }
  const ArrivalCalendar& calendar() const { return impl().calendar; }
  /// A fresh cursor positioned at tick 0 — a copy of the prebuilt heap,
  /// byte-identical in pop order to ArrivalCalendar::MakeCursor().
  ArrivalCalendar::Cursor MakeCursor() const {
    return impl().initial_cursor;
  }

  /// DefaultHorizon of the scenario, resolved once at compile time.
  Tick horizon() const { return impl().resolved_horizon; }

  SpecId spec_count() const { return impl().scenario.set.size(); }
  ItemId item_count() const { return impl().scenario.set.item_count(); }

  /// Dense access bitsets: true when `spec` may read / write `item`.
  bool SpecReads(SpecId spec, ItemId item) const {
    return TestBit(impl().read_bits, spec, item);
  }
  bool SpecWrites(SpecId spec, ItemId item) const {
    return TestBit(impl().write_bits, spec, item);
  }

 private:
  struct Impl {
    explicit Impl(Scenario s)
        : scenario(std::move(s)),
          ceilings(scenario.set),
          calendar(&scenario.set),
          initial_cursor(calendar.MakeCursor()) {}

    Scenario scenario;
    StaticCeilings ceilings;
    ArrivalCalendar calendar;
    ArrivalCalendar::Cursor initial_cursor;
    Tick resolved_horizon = 0;
    std::size_t words_per_spec = 0;
    std::vector<std::uint64_t> read_bits;
    std::vector<std::uint64_t> write_bits;
  };

  explicit CompiledPlan(std::shared_ptr<const Impl> impl)
      : impl_(std::move(impl)) {}

  const Impl& impl() const {
    PCPDA_CHECK_MSG(impl_ != nullptr, "empty CompiledPlan");
    return *impl_;
  }

  bool TestBit(const std::vector<std::uint64_t>& bits, SpecId spec,
               ItemId item) const {
    const Impl& plan = impl();
    PCPDA_CHECK(spec >= 0 && spec < plan.scenario.set.size());
    PCPDA_CHECK(item >= 0 && item < plan.scenario.set.item_count());
    const std::size_t word = static_cast<std::size_t>(spec) *
                                 plan.words_per_spec +
                             static_cast<std::size_t>(item) / 64;
    return (bits[word] >> (static_cast<std::size_t>(item) % 64)) & 1u;
  }

  std::shared_ptr<const Impl> impl_;
};

}  // namespace pcpda

#endif  // PCPDA_PLAN_COMPILED_PLAN_H_
