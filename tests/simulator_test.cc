#include <gtest/gtest.h>

#include "core/pcp_da.h"
#include "history/serialization_graph.h"
#include "protocols/two_pl_pi.h"
#include "test_util.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

TransactionSet MakeSet(std::vector<TransactionSpec> specs,
                       PriorityAssignment pa =
                           PriorityAssignment::kAsListed) {
  auto set = TransactionSet::Create(std::move(specs), pa);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

TEST(SimulatorTest, RejectsZeroHorizon) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  PcpDa protocol;
  Simulator sim(&set, &protocol, SimulatorOptions{});
  const SimResult result = sim.Run();
  EXPECT_FALSE(result.status.ok());
}

TEST(SimulatorTest, SingleComputeJobRunsToCommit) {
  TransactionSet set =
      MakeSet({{.name = "T", .offset = 2, .body = {Compute(3)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  ASSERT_TRUE(result.status.ok());
  const auto& m = result.metrics.per_spec[0];
  EXPECT_EQ(m.released, 1);
  EXPECT_EQ(m.committed, 1);
  EXPECT_EQ(m.busy_ticks, 3);
  EXPECT_EQ(CommitTime(result, 0, 0), 5);
  EXPECT_EQ(result.metrics.idle_ticks, 10 - 3);
}

TEST(SimulatorTest, PeriodicReleases) {
  TransactionSet set =
      MakeSet({{.name = "T", .period = 4, .body = {Compute(1)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 12);
  EXPECT_EQ(result.metrics.per_spec[0].released, 3);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 3);
  EXPECT_TRUE(result.metrics.AllDeadlinesMet());
}

TEST(SimulatorTest, HigherPriorityPreempts) {
  TransactionSet set = MakeSet({
      {.name = "hi", .offset = 2, .body = {Compute(2)}},
      {.name = "lo", .offset = 0, .body = {Compute(6)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 12);
  // lo runs [0,2), hi preempts [2,4), lo resumes [4,8).
  EXPECT_EQ(CommitTime(result, 0, 0), 4);
  EXPECT_EQ(CommitTime(result, 1, 0), 8);
  EXPECT_EQ(result.metrics.per_spec[1].preempted_ticks, 2);
  EXPECT_EQ(result.metrics.per_spec[1].blocked_ticks, 0);
}

TEST(SimulatorTest, DeadlineMissRecordedOnceAndJobContinues) {
  // C=5 but deadline (=period) is 4.
  TransactionSpec t{.name = "T", .period = 8, .body = {Compute(5)}};
  t.relative_deadline = 4;
  TransactionSet set = MakeSet({t});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 8);
  EXPECT_EQ(result.metrics.per_spec[0].deadline_misses, 1);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(CommitTime(result, 0, 0), 5);
  EXPECT_EQ(result.trace.EventsOfKind(TraceKind::kDeadlineMiss).size(), 1u);
}

TEST(SimulatorTest, DeadlineMissDropPolicy) {
  TransactionSpec t{.name = "T", .period = 8, .body = {Compute(5)}};
  t.relative_deadline = 4;
  TransactionSpec hog{.name = "hog", .offset = 0, .body = {Compute(4)}};
  // hog has higher listed priority, starving T past its deadline.
  TransactionSet set = MakeSet({hog, t});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 8;
  options.miss_policy = DeadlineMissPolicy::kDrop;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_EQ(result.metrics.per_spec[1].deadline_misses, 1);
  EXPECT_EQ(result.metrics.per_spec[1].dropped, 1);
  EXPECT_EQ(result.metrics.per_spec[1].committed, 0);
}

TEST(SimulatorTest, DeadlineMissHaltPolicy) {
  TransactionSpec t{.name = "T", .period = 6, .body = {Compute(5)}};
  t.relative_deadline = 2;
  TransactionSet set = MakeSet({t});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 20;
  options.miss_policy = DeadlineMissPolicy::kHalt;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.metrics.halted_on_miss);
  EXPECT_LT(result.trace.ticks().size(), 20u);
}

// A (spec 2, released first) and B (spec 1, released a tick later) fall
// due in the same tick while a hog holds the processor. Misses are handled
// in ascending job id — A before B — not in spec or release-heap order.
TransactionSet SameTickMissSet() {
  return MakeSet({
      {.name = "hog", .body = {Compute(8)}},
      {.name = "B", .offset = 1, .relative_deadline = 4, .body = {Compute(2)}},
      {.name = "A", .offset = 0, .relative_deadline = 5, .body = {Compute(2)}},
  });
}

TEST(SimulatorTest, SameTickMissesAreTracedInIdOrder) {
  TransactionSet set = SameTickMissSet();
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 12);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const auto misses = result.trace.EventsOfKind(TraceKind::kDeadlineMiss);
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[0].tick, 5);
  EXPECT_EQ(misses[0].spec, 2);  // A: job 1
  EXPECT_EQ(misses[1].tick, 5);
  EXPECT_EQ(misses[1].spec, 1);  // B: job 2
  EXPECT_LT(misses[0].job, misses[1].job);
}

TEST(SimulatorTest, HaltOnMissStopsAtLowestIdDueThatTick) {
  TransactionSet set = SameTickMissSet();
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 12;
  options.miss_policy = DeadlineMissPolicy::kHalt;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.metrics.halted_on_miss);
  EXPECT_EQ(result.metrics.per_spec[2].deadline_misses, 1);  // A
  EXPECT_EQ(result.metrics.per_spec[1].deadline_misses, 0);  // B
  const auto misses = result.trace.EventsOfKind(TraceKind::kDeadlineMiss);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].spec, 2);
}

TEST(SimulatorTest, RetiredJobsNeverReportAMiss) {
  // "early" commits at tick 2, long before its deadline at 10, while
  // "late" keeps the processor busy past it. "dropped" misses at tick 4
  // and is dropped: one miss, never a second.
  TransactionSet set = MakeSet({
      {.name = "early", .relative_deadline = 10, .body = {Compute(2)}},
      {.name = "late", .relative_deadline = 30, .body = {Compute(12)}},
      {.name = "dropped", .relative_deadline = 4, .body = {Compute(3)}},
  });
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 20;
  options.miss_policy = DeadlineMissPolicy::kDrop;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(CommitTime(result, 0, 0), 2);
  EXPECT_EQ(result.metrics.per_spec[0].deadline_misses, 0);
  EXPECT_EQ(result.metrics.per_spec[1].deadline_misses, 0);
  EXPECT_EQ(result.metrics.per_spec[2].deadline_misses, 1);
  EXPECT_EQ(result.metrics.per_spec[2].dropped, 1);
  const auto misses = result.trace.EventsOfKind(TraceKind::kDeadlineMiss);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].spec, 2);
  EXPECT_EQ(misses[0].tick, 4);
}

// The deadlock check runs only after SetWaits added an edge; Example 5's
// crossed access under 2PL-PI must still be caught the moment its cycle
// closes, at tick 2 (TL, job 0, and TH, job 1), under both policies.
TEST(SimulatorTest, Example5DeadlockUnderTwoPlPiAtTickTwo) {
  auto scenario = LoadScenarioFile(PCPDA_SOURCE_DIR "/scenarios/example5.scn");
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  for (DeadlockPolicy policy :
       {DeadlockPolicy::kHalt, DeadlockPolicy::kAbortLowestPriority}) {
    const SimResult result = RunWith(scenario->set, ProtocolKind::kTwoPlPi,
                                     scenario->horizon, policy);
    const auto deadlocks = result.trace.EventsOfKind(TraceKind::kDeadlock);
    ASSERT_EQ(deadlocks.size(), 1u);
    EXPECT_EQ(deadlocks[0].tick, 2);
    EXPECT_EQ(deadlocks[0].others, (std::vector<JobId>{0, 1}));
    EXPECT_EQ(result.metrics.halted_on_deadlock,
              policy == DeadlockPolicy::kHalt);
  }
}

/// Grants every request before `switch_tick`, then answers every request
/// with AbortRequester: a protocol that aborts without progress. It fails
/// on its own once it has aborted more often than a guard sized by the
/// active set allows, so only a guard sized that way trips first.
class SelfAbortAfter final : public Protocol {
 public:
  explicit SelfAbortAfter(Tick switch_tick) : switch_tick_(switch_tick) {}
  const char* name() const override { return "self-abort"; }
  UpdateModel update_model() const override {
    return UpdateModel::kWorkspace;
  }
  bool uses_priority_inheritance() const override { return false; }
  LockDecision Decide(const LockRequest& request) const override {
    (void)request;
    if (view().now() < switch_tick_) return LockDecision::Grant();
    PCPDA_CHECK_MSG(++aborts_ < 1000, "abort guard grows with the archive");
    return LockDecision::AbortRequester();
  }

 private:
  Tick switch_tick_;
  mutable int aborts_ = 0;
};

TEST(SimulatorDeathTest, AbortGuardScalesWithActiveJobs) {
  // 1,000 one-tick jobs commit before the switch, so the archive holds
  // 1,000 jobs while at most one is ever in flight.
  TransactionSet set =
      MakeSet({{.name = "T", .period = 2, .body = {Write(0)}}});
  SimulatorOptions options;
  options.horizon = 2004;
  options.record_trace = false;
  options.record_history = false;
  EXPECT_DEATH(
      {
        SelfAbortAfter protocol(2000);
        Simulator sim(&set, &protocol, options);
        sim.Run();
      },
      "dispatch resolution is not making progress");
}

TEST(SimulatorTest, ReadObservesCommittedValue) {
  // writer (higher priority) commits, then reader reads the new value.
  TransactionSet set = MakeSet({
      {.name = "W", .offset = 0, .body = {Write(0)}},
      {.name = "R", .offset = 0, .body = {Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  ASSERT_EQ(result.history.committed().size(), 2u);
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 1) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  ASSERT_EQ(reader->ops.size(), 1u);
  EXPECT_EQ(reader->ops[0].observed.writer, 0);  // job 0 = writer
}

TEST(SimulatorTest, OwnWorkspaceReadAfterWrite) {
  TransactionSet set = MakeSet({
      {.name = "T", .offset = 0, .body = {Write(0), Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  ASSERT_EQ(result.history.committed().size(), 1u);
  const auto& ops = result.history.committed()[0].ops;
  // write (at commit), read (own).
  bool saw_own_read = false;
  for (const HistoryOp& op : ops) {
    if (op.kind == HistoryOp::Kind::kRead) {
      EXPECT_TRUE(op.own_read);
      EXPECT_EQ(op.observed.writer, 0);
      saw_own_read = true;
    }
  }
  EXPECT_TRUE(saw_own_read);
}

TEST(SimulatorTest, WorkspaceWritesApplyAtCommitOnly) {
  // Reader samples x while the lower-priority writer is mid-transaction.
  TransactionSet set = MakeSet({
      {.name = "R", .offset = 1, .body = {Read(0)}},
      {.name = "W", .offset = 0, .body = {Write(0), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 0) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  // The write was pending in W's workspace: R saw the initial value.
  EXPECT_EQ(reader->ops[0].observed.writer, kInvalidJob);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(SimulatorTest, InPlaceWritesApplyImmediately) {
  TransactionSet set = MakeSet({
      {.name = "W", .offset = 0, .body = {Write(0)}},
      {.name = "R", .offset = 0, .body = {Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 10);
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 1) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ops[0].observed.writer, 0);
}

TEST(SimulatorTest, TraceTicksCoverHorizon) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 7);
  EXPECT_EQ(result.trace.ticks().size(), 7u);
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_EQ(result.trace.ticks()[t].tick, static_cast<Tick>(t));
  }
}

TEST(SimulatorTest, IdleFastForwardMatchesPerTickEngine) {
  // Sparse workload: 2 busy ticks then a 98-tick idle gap, every period.
  // Without an auditor the core fast-forwards the gaps; with one it walks
  // every tick. Both paths must report byte-identical results.
  TransactionSet set = MakeSet(
      {{.name = "Sparse", .period = 100, .body = {Read(0), Write(1)}}});
  auto run = [&set](bool audit) {
    auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
    SimulatorOptions options;
    options.horizon = 1000;
    options.audit = audit;
    Simulator sim(&set, protocol.get(), options);
    return sim.Run();
  };
  const SimResult fast = run(false);
  const SimResult slow = run(true);
  ASSERT_TRUE(fast.status.ok());
  ASSERT_TRUE(slow.status.ok());
  EXPECT_EQ(fast.metrics.DebugString(set), slow.metrics.DebugString(set));
  EXPECT_EQ(fast.trace.DebugString(), slow.trace.DebugString());
  EXPECT_EQ(fast.metrics.idle_ticks, 1000 - 10 * 2);
  // Skipped ticks still produce their idle TickRecords, consecutively.
  ASSERT_EQ(fast.trace.ticks().size(), 1000u);
  for (std::size_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(fast.trace.ticks()[t].tick, static_cast<Tick>(t));
    EXPECT_EQ(fast.trace.ticks()[t].running_job,
              slow.trace.ticks()[t].running_job);
  }
}

TEST(SimulatorTest, FastForwardStopsAtHorizonWithNoMoreArrivals) {
  // One-shot job, huge idle tail: the run must still account for every
  // tick up to the horizon, not stop at the last arrival.
  TransactionSet set = MakeSet(
      {{.name = "Once", .period = 0, .offset = 3, .body = {Compute(2)}}});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 5000;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(result.metrics.idle_ticks, 5000 - 2);
  EXPECT_EQ(result.trace.ticks().size(), 5000u);
  EXPECT_EQ(result.trace.ticks().back().tick, 4999);
}

TEST(SimulatorTest, MissRatioCensorsReleaseJustBeforeHorizon) {
  // A hogs every other tick, so B (needs 5 ticks out of the 4 odd ticks
  // per period) misses each deadline. B's instance released one tick
  // before the horizon has a deadline beyond it — neither met nor missed.
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 2, .body = {Compute(1)}},
          {.name = "B", .period = 8, .body = {Compute(5)}},
      },
      PriorityAssignment::kRateMonotonic);
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 9;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  const RunMetrics& m = result.metrics;
  EXPECT_EQ(m.TotalReleased(), 7);  // A at 0,2,4,6,8; B at 0,8
  EXPECT_EQ(m.TotalMisses(), 1);    // B's first instance, at tick 8
  // B@8 is censored; B@0 already missed, so it counts as decided even
  // though it is still running at the horizon.
  EXPECT_EQ(m.TotalPending(), 1);
  EXPECT_EQ(m.per_spec[1].pending_at_horizon, 1);
  EXPECT_DOUBLE_EQ(m.MissRatio(), 1.0 / 6.0);
}

TEST(SimulatorTest, ResponseTimeMetrics) {
  TransactionSet set = MakeSet({
      {.name = "hi", .period = 5, .body = {Compute(1)}},
      {.name = "lo", .period = 10, .body = {Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_EQ(result.metrics.per_spec[0].max_response, 1);
  // lo: runs [1,4) after hi's first instance -> response 4.
  EXPECT_EQ(result.metrics.per_spec[1].max_response, 4);
}

TEST(SimulatorTest, RecordingCanBeDisabled) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Read(0)}}});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 5;
  options.record_trace = false;
  options.record_history = false;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.trace.events().empty());
  EXPECT_TRUE(result.trace.ticks().empty());
  EXPECT_TRUE(result.history.committed().empty());
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
}

TEST(SimulatorTest, LockReacquisitionNotNeededWithinJob) {
  // Read x twice: the second read reuses the held lock.
  TransactionSet set =
      MakeSet({{.name = "T", .body = {Read(0), Compute(1), Read(0)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_EQ(result.trace.EventsOfKind(TraceKind::kLockGrant).size(), 1u);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
}

TEST(SimulatorTest, LocksReleasedAtCommit) {
  TransactionSet set = MakeSet({
      {.name = "A", .offset = 0, .body = {Write(0)}},
      {.name = "B", .offset = 2, .body = {Write(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 10);
  EXPECT_EQ(result.metrics.per_spec[1].committed, 1);
  EXPECT_EQ(result.metrics.per_spec[1].blocked_ticks, 0);
}

}  // namespace
}  // namespace pcpda
