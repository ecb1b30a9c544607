// Golden determinism tests: a full simulator run must be byte-identical
// — trace events, per-tick schedule, metrics, history and audit verdict —
// for every protocol, run after run and engine rewrite after engine
// rewrite. Two scenarios are pinned:
//
//  - scenarios/example3_faulty.scn, recorded from the pre-event-driven
//    (per-tick full-scan) engine: fault plan, auditor, deadlock aborts on
//    a handful of jobs.
//  - a generated contended workload (MakeContended below), recorded
//    before dispatch resolution became incremental: Poisson releases past
//    saturation, an active set above 50, transitive inheritance chains
//    and 2PL-HP abort rounds — the shape where the dispatch fixpoint does
//    real work.
//
// Regenerate deliberately with
//
//   PCPDA_REGEN_GOLDEN=1 ./tests/determinism_test
//
// only after verifying that a behavior change is intended.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "common/strings.h"
#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "sim/arrival_schedule.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

std::string SourcePath(const char* relative) {
  return std::string(PCPDA_SOURCE_DIR "/") + relative;
}

Scenario LoadScenario() {
  auto scenario = LoadScenarioFile(SourcePath("scenarios/example3_faulty.scn"));
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

std::string RenderTick(const TickRecord& record) {
  std::string out = StrFormat(
      "t=%lld run=%lld spec=%d kind=%d ceil=%s",
      static_cast<long long>(record.tick),
      static_cast<long long>(record.running_job), record.running_spec,
      static_cast<int>(record.running_kind),
      record.ceiling.DebugString().c_str());
  for (const BlockedSample& blocked : record.blocked) {
    std::vector<std::string> ids;
    for (JobId id : blocked.blockers) {
      ids.push_back(StrFormat("%lld", static_cast<long long>(id)));
    }
    out += StrFormat(" blocked{job=%lld item=d%d mode=%s reason=%s by=[%s]}",
                     static_cast<long long>(blocked.job), blocked.item,
                     ToString(blocked.mode), ToString(blocked.reason),
                     Join(ids, ",").c_str());
  }
  return out;
}

/// One protocol's full run rendered as text. Everything observable lands
/// here: any engine change that perturbs the schedule shows up as a diff.
/// With a plan the run goes through the compiled path; the contract is
/// that both paths render byte-identically. `arrivals` overrides the
/// periodic release calendar.
std::string RenderRun(const Scenario& scenario, ProtocolKind kind,
                      const CompiledPlan* plan = nullptr,
                      const ArrivalSchedule* arrivals = nullptr) {
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = scenario.horizon;
  options.faults = scenario.faults;
  options.audit = true;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  options.arrival_schedule = arrivals;
  const SimResult result = [&] {
    if (plan != nullptr) {
      Simulator sim(*plan, protocol.get(), options);
      return sim.Run();
    }
    Simulator sim(&scenario.set, protocol.get(), options);
    return sim.Run();
  }();

  std::ostringstream out;
  out << "=== " << ToString(kind) << " ===\n";
  out << "status: " << result.status.ToString() << "\n";
  out << "audit: " << result.audit.DebugString() << "\n";
  out << "[metrics]\n" << result.metrics.DebugString(scenario.set) << "\n";
  out << "[events]\n" << result.trace.DebugString() << "\n";
  out << "[ticks]\n";
  for (const TickRecord& record : result.trace.ticks()) {
    out << RenderTick(record) << "\n";
  }
  out << "[history]\n" << result.history.DebugString() << "\n";
  return out.str();
}

std::string RenderAllProtocols(const Scenario& scenario,
                               const ArrivalSchedule* arrivals = nullptr) {
  std::ostringstream out;
  for (ProtocolKind kind : AllProtocolKinds()) {
    out << RenderRun(scenario, kind, nullptr, arrivals);
  }
  return out.str();
}

/// Compares `actual` with the golden file at `relative` (or rewrites the
/// file under PCPDA_REGEN_GOLDEN), reporting the first divergence.
void ExpectMatchesGolden(const std::string& actual, const char* relative) {
  const std::string golden_path = SourcePath(relative);

  if (std::getenv("PCPDA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with PCPDA_REGEN_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();

  if (actual != expected.str()) {
    // Locate the first divergence to keep the failure readable.
    const std::string& want = expected.str();
    std::size_t at = 0;
    while (at < actual.size() && at < want.size() &&
           actual[at] == want[at]) {
      ++at;
    }
    const std::size_t from = at < 120 ? 0 : at - 120;
    FAIL() << "run diverges from golden at byte " << at << "\n--- golden:\n"
           << want.substr(from, 240) << "\n--- actual:\n"
           << actual.substr(from, 240);
  }
}

TEST(DeterminismTest, GoldenExample3FaultyAllProtocols) {
  ExpectMatchesGolden(RenderAllProtocols(LoadScenario()),
                      "tests/golden/example3_faulty.golden");
}

// One CompiledPlan shared by all 8 protocols must match the same golden
// as the per-run plans above, on the richest scenario we have: fault
// plan active, auditor on, deadlock aborts. Any divergence in trace
// events, per-tick schedule, blocked annotations, metrics, history or
// audit verdict fails here.
TEST(DeterminismTest, CompiledMatchesGolden) {
  if (std::getenv("PCPDA_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden being regenerated";
  }
  const Scenario scenario = LoadScenario();
  CompileOptions compile_options;
  compile_options.lint = false;
  auto compiled = CompiledPlan::Compile(scenario, compile_options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  std::ostringstream actual;
  for (ProtocolKind kind : AllProtocolKinds()) {
    actual << RenderRun(scenario, kind, &compiled.value());
  }

  std::ifstream in(SourcePath("tests/golden/example3_faulty.golden"),
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(DeterminismTest, BackToBackRunsAreIdentical) {
  const Scenario scenario = LoadScenario();
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_EQ(RenderRun(scenario, kind), RenderRun(scenario, kind))
        << "protocol " << ToString(kind) << " is not deterministic";
  }
}

// --- Contended workload --------------------------------------------------

/// A generated write-heavy set over few items, released by a Poisson
/// schedule at well past the processor's capacity with the default
/// kContinue miss policy, so the backlog (and the active set) grows for
/// the whole horizon.
struct ContendedInput {
  Scenario scenario;
  ArrivalSchedule arrivals;
};

ContendedInput MakeContended() {
  Rng rng(2);
  WorkloadParams params;
  params.num_transactions = 8;
  params.num_items = 10;
  params.total_utilization = 0.9;
  params.write_fraction = 0.6;
  params.min_period = 10;
  params.max_period = 60;
  auto set = GenerateWorkload(params, rng);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  const Tick horizon = 130;
  ArrivalSchedule arrivals =
      ArrivalSchedule::Poisson(*set, horizon, /*load=*/1.8, rng);
  return {Scenario{"contended", std::move(set).value(), horizon, {}, {}, {},
                   {}},
          std::move(arrivals)};
}

TEST(DeterminismTest, GoldenContendedAllProtocols) {
  const ContendedInput input = MakeContended();
  ExpectMatchesGolden(RenderAllProtocols(input.scenario, &input.arrivals),
                      "tests/golden/contended_poisson.golden");
}

/// Test-only spy: forwards every Protocol virtual to the wrapped protocol
/// and records what reached Decide: call counts, and an FNV-1a hash
/// folded over every call in order (tick, job, item, mode, the
/// requester's running priority, and the returned kind, reason, jobs and
/// note). Protocol::Attach is not virtual, so the wrapped protocol is
/// bound lazily to the spy's view.
class DecideSpy final : public Protocol {
 public:
  explicit DecideSpy(std::unique_ptr<Protocol> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  UpdateModel update_model() const override {
    return inner_->update_model();
  }
  bool uses_priority_inheritance() const override {
    return inner_->uses_priority_inheritance();
  }
  CeilingRule ceiling_rule() const override {
    return inner_->ceiling_rule();
  }
  bool releases_early() const override { return inner_->releases_early(); }

  LockDecision Decide(const LockRequest& request) const override {
    Bind();
    ++calls_;
    const auto key = std::make_tuple(view().now(), request.job->id(),
                                     request.job->running_priority());
    if (!seen_.insert(key).second) ++repeats_;
    max_active_ = std::max(max_active_,
                           view().LiveJobs(request.job->id()).size() + 1);
    LockDecision decision = inner_->Decide(request);
    Fold(view().now());
    Fold(request.job->id());
    Fold(request.item);
    Fold(static_cast<int>(request.mode));
    Fold(request.job->running_priority().level());
    Fold(static_cast<int>(decision.kind));
    Fold(static_cast<int>(decision.reason));
    Fold(static_cast<std::int64_t>(decision.jobs.size()));
    for (JobId id : decision.jobs) Fold(id);
    Fold(static_cast<std::int64_t>(decision.note.size()));
    for (char c : decision.note) FoldByte(static_cast<unsigned char>(c));
    return decision;
  }
  std::vector<std::pair<ItemId, LockMode>> EarlyReleases(
      const Job& job) const override {
    Bind();
    return inner_->EarlyReleases(job);
  }
  Priority CurrentCeiling() const override {
    Bind();
    return inner_->CurrentCeiling();
  }
  std::vector<JobId> CommitVictims(const Job& committing) const override {
    Bind();
    return inner_->CommitVictims(committing);
  }
  void OnCommitApplied(const Job& committed) override {
    Bind();
    inner_->OnCommitApplied(committed);
  }
  void OnAbortApplied(const Job& aborted) override {
    Bind();
    inner_->OnAbortApplied(aborted);
  }

  std::int64_t calls() const { return calls_; }
  /// Decide calls whose (tick, job, running priority) was already asked.
  std::int64_t repeats() const { return repeats_; }
  std::size_t max_active() const { return max_active_; }
  /// FNV-1a over the whole Decide sequence; any change to which requests
  /// are decided, in what order, at what priority, or to their answers
  /// changes it.
  std::uint64_t sequence_hash() const { return hash_; }

 private:
  void FoldByte(unsigned char byte) const {
    hash_ = (hash_ ^ byte) * 0x100000001b3ull;
  }
  /// Folds the value as 8 little-endian bytes, independent of host width.
  void Fold(std::int64_t value) const {
    const auto bits = static_cast<std::uint64_t>(value);
    for (int shift = 0; shift < 64; shift += 8) {
      FoldByte(static_cast<unsigned char>(bits >> shift));
    }
  }

  void Bind() const {
    if (bound_ != &view()) {
      inner_->Attach(&view());
      bound_ = &view();
    }
  }

  std::unique_ptr<Protocol> inner_;
  mutable const SimView* bound_ = nullptr;
  mutable std::int64_t calls_ = 0;
  mutable std::int64_t repeats_ = 0;
  mutable std::size_t max_active_ = 0;
  mutable std::set<std::tuple<Tick, JobId, Priority>> seen_;
  mutable std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

SimResult RunContended(const ContendedInput& input, Protocol* protocol) {
  SimulatorOptions options;
  options.horizon = input.scenario.horizon;
  options.audit = true;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  options.arrival_schedule = &input.arrivals;
  Simulator sim(&input.scenario.set, protocol, options);
  return sim.Run();
}

// The workload really is the contended shape the golden claims: a large
// active set, an inheritance chain two edges deep, and 2PL-HP restarts.
TEST(DeterminismTest, ContendedWorkloadIsContended) {
  const ContendedInput input = MakeContended();

  DecideSpy spy(MakeProtocol(ProtocolKind::kPcpDa));
  const SimResult pcp_da = RunContended(input, &spy);
  ASSERT_TRUE(pcp_da.status.ok()) << pcp_da.status.ToString();
  EXPECT_GT(spy.max_active(), 50u);

  bool transitive = false;
  for (const TickRecord& record : pcp_da.trace.ticks()) {
    std::set<JobId> blocked;
    for (const BlockedSample& sample : record.blocked) {
      blocked.insert(sample.job);
    }
    for (const BlockedSample& sample : record.blocked) {
      for (JobId blocker : sample.blockers) {
        transitive = transitive || blocked.contains(blocker);
      }
    }
  }
  EXPECT_TRUE(transitive) << "no waiter blocked by a blocked job";

  auto two_pl_hp = MakeProtocol(ProtocolKind::kTwoPlHp);
  const SimResult hp = RunContended(input, two_pl_hp.get());
  ASSERT_TRUE(hp.status.ok()) << hp.status.ToString();
  EXPECT_GT(hp.metrics.TotalRestarts(), 0);
}

// Dispatch resolution asks Decide at most once per (tick, job, running
// priority): within a tick the protocol's inputs other than the
// requester's own running priority are fixed, so a repeat could only
// return a known answer. PCP-DA and RW-PCP never abort, so every tick
// is a single resolution round.
TEST(DispatchMemoTest, NoRequestIsDecidedTwiceAtOnePriority) {
  const ContendedInput input = MakeContended();
  for (ProtocolKind kind : {ProtocolKind::kPcpDa, ProtocolKind::kRwPcp}) {
    DecideSpy spy(MakeProtocol(kind));
    const SimResult result = RunContended(input, &spy);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.metrics.TotalRestarts(), 0) << ToString(kind);
    EXPECT_EQ(result.metrics.deadlocks, 0) << ToString(kind);
    EXPECT_GT(spy.calls(), 0) << ToString(kind);
    EXPECT_EQ(spy.repeats(), 0) << ToString(kind);
    EXPECT_EQ(spy.calls(), result.metrics.lock_decisions) << ToString(kind);
  }
}

// Exact Decide-call counts on the contended workload. A regression back
// to re-deciding known answers fails on an exact number, not on wall
// clock; a deliberate change to dispatch resolution updates this table.
// Before the per-round memo the same runs made 10,873 (PCP-DA), 40,016
// (RW-PCP, CCP), 37,728 (PCP), 11,529 (2PL-PI), 12,540 (2PL-HP) and
// 3,569 (OCC-BC, OCC-DA) calls.
TEST(DispatchMemoTest, LockDecisionCountsArePinned) {
  const ContendedInput input = MakeContended();
  const std::map<ProtocolKind, std::int64_t> expected = {
      {ProtocolKind::kPcpDa, 3561},   {ProtocolKind::kRwPcp, 3555},
      {ProtocolKind::kCcp, 3555},     {ProtocolKind::kOpcp, 3547},
      {ProtocolKind::kTwoPlPi, 3674}, {ProtocolKind::kTwoPlHp, 3768},
      {ProtocolKind::kOccBc, 3569},   {ProtocolKind::kOccDa, 3569},
  };
  for (ProtocolKind kind : AllProtocolKinds()) {
    auto protocol = MakeProtocol(kind);
    const SimResult result = RunContended(input, protocol.get());
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.metrics.lock_decisions, expected.at(kind))
        << ToString(kind);
  }
}

// Exact dispatch work on the contended workload: resolutions, fixpoint
// sweeps and visits (jobs examined by a sweep). Before sweeps resumed at
// the first unsettled job, each restarted from the top of the dispatch
// order: the same resolutions and sweeps made 12,243 (PCP-DA), 45,841
// (RW-PCP) and 14,298 (2PL-HP) visits.
TEST(DispatchMemoTest, DispatchWorkCountsArePinned) {
  const ContendedInput input = MakeContended();
  struct Work {
    std::int64_t resolutions, sweeps, visits;
  };
  const std::map<ProtocolKind, Work> expected = {
      {ProtocolKind::kPcpDa, {127, 603, 4032}},
      {ProtocolKind::kRwPcp, {127, 2024, 4026}},
      {ProtocolKind::kTwoPlHp, {127, 650, 4258}},
  };
  for (const auto& [kind, work] : expected) {
    auto protocol = MakeProtocol(kind);
    const SimResult result = RunContended(input, protocol.get());
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.metrics.dispatch_resolutions, work.resolutions)
        << ToString(kind);
    EXPECT_EQ(result.metrics.fixpoint_sweeps, work.sweeps) << ToString(kind);
    EXPECT_EQ(result.metrics.dispatch_visits, work.visits) << ToString(kind);
  }
}

/// The Decide sequence hash of one run of `scenario` under `kind`, with
/// RenderRun's options.
std::uint64_t DecideSequenceHash(const Scenario& scenario, ProtocolKind kind,
                                 const ArrivalSchedule* arrivals = nullptr) {
  DecideSpy spy(MakeProtocol(kind));
  SimulatorOptions options;
  options.horizon = scenario.horizon;
  options.faults = scenario.faults;
  options.audit = true;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  options.arrival_schedule = arrivals;
  Simulator sim(&scenario.set, &spy, options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return spy.sequence_hash();
}

// The exact Decide sequence — not only its length — is pinned per
// protocol on both golden inputs: which requests are decided, in which
// order, at which running priority, and what each answer was. Recorded
// on the engine before dispatch resolution resumed sweeps mid-order; an
// engine change that keeps the goldens but reorders, adds or drops a
// decision fails here.
TEST(DispatchMemoTest, DecideSequenceHashesArePinned) {
  const ContendedInput contended = MakeContended();
  const Scenario faulty = LoadScenario();
  const std::map<ProtocolKind, std::pair<std::uint64_t, std::uint64_t>>
      expected = {
          // {contended Poisson, example3_faulty.scn}
          {ProtocolKind::kPcpDa,
           {0xd351b88628f80527ull, 0xd40b6350495b33fbull}},
          {ProtocolKind::kRwPcp,
           {0xf6606ad3f6d44719ull, 0x993a67f8460769eeull}},
          {ProtocolKind::kCcp,
           {0xf6606ad3f6d44719ull, 0x264cb46a9ac1f94dull}},
          {ProtocolKind::kOpcp,
           {0xcd297d3e06892176ull, 0xb8ed8e15eee8320eull}},
          {ProtocolKind::kTwoPlPi,
           {0x7adb4bdbbe3428a8ull, 0x993a67f8460769eeull}},
          {ProtocolKind::kTwoPlHp,
           {0x1912b9c9cba22db6ull, 0x5637cb7a0ace22ceull}},
          {ProtocolKind::kOccBc,
           {0x5a0958563cb8e7d8ull, 0x73d7ae02b3483c11ull}},
          {ProtocolKind::kOccDa,
           {0x5a0958563cb8e7d8ull, 0x73d7ae02b3483c11ull}},
      };
  for (ProtocolKind kind : AllProtocolKinds()) {
    const std::uint64_t on_contended =
        DecideSequenceHash(contended.scenario, kind, &contended.arrivals);
    const std::uint64_t on_faulty = DecideSequenceHash(faulty, kind);
    EXPECT_EQ(on_contended, expected.at(kind).first) << ToString(kind);
    EXPECT_EQ(on_faulty, expected.at(kind).second) << ToString(kind);
  }
}

}  // namespace
}  // namespace pcpda
