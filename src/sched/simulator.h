#ifndef PCPDA_SCHED_SIMULATOR_H_
#define PCPDA_SCHED_SIMULATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/ceilings.h"
#include "db/database.h"
#include "db/lock_table.h"
#include "fault/fault_plan.h"
#include "history/history.h"
#include "plan/compiled_plan.h"
#include "plan/job_arena.h"
#include "protocols/protocol.h"
#include "sched/auditor.h"
#include "sched/metrics.h"
#include "sched/wait_graph.h"
#include "sim/arrival_schedule.h"
#include "sim/calendar.h"
#include "trace/trace.h"
#include "txn/job.h"
#include "txn/spec.h"

namespace pcpda {

/// What to do when a job misses its deadline.
enum class DeadlineMissPolicy : std::uint8_t {
  /// Record the miss and let the job finish (default; keeps the paper's
  /// figures intact, e.g. Figure 3 where T1 runs past its deadline).
  kContinue,
  /// Record the miss and drop the job (release its locks, undo in-place
  /// writes).
  kDrop,
  /// Record the miss and halt the run.
  kHalt,
};

/// What to do when the wait-for graph contains a cycle.
enum class DeadlockPolicy : std::uint8_t {
  /// Record the deadlock and halt (ceiling protocols must never reach
  /// this; 2PL-PI can).
  kHalt,
  /// Abort (restart) the lowest-base-priority member of the cycle and
  /// continue.
  kAbortLowestPriority,
};

struct SimulatorOptions {
  /// Simulate ticks [0, horizon). Required > 0.
  Tick horizon = 0;
  DeadlineMissPolicy miss_policy = DeadlineMissPolicy::kContinue;
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kHalt;
  /// Record the per-tick schedule and events (needed by Gantt/figures).
  bool record_trace = true;
  /// Record the operation history (needed by the serializability checker).
  bool record_history = true;
  /// Release schedule override (sporadic/Poisson/trace arrivals). When
  /// null, releases follow the specs' periodic calendar — the paper's
  /// model. Must outlive the simulator.
  const ArrivalSchedule* arrival_schedule = nullptr;
  /// Fault plan: injected aborts, overruns and arrival jitter. Empty
  /// (default) injects nothing. Validated at Run(); a bad config yields a
  /// non-OK SimResult.status.
  FaultConfig faults;
  /// Run the per-tick invariant auditor; violations land in
  /// SimResult.audit and make SimResult.status non-OK.
  bool audit = false;
  /// When non-zero, bound the recorded trace to (roughly) the most recent
  /// `max_trace_events` discrete events and the same number of tick
  /// records, so long horizons don't hold every event ever traced in
  /// memory. 0 (default) keeps everything. Dropped counts are reported by
  /// Trace::dropped_events()/dropped_ticks().
  std::size_t max_trace_events = 0;
  /// Cooperative cancellation: checked once per scheduled tick. When the
  /// pointed-at flag becomes true (a wall-clock watchdog, a SIGINT
  /// handler), the run stops at the next tick boundary and returns
  /// kDeadlineExceeded — the partial metrics are not trustworthy. Null
  /// (default) never cancels; must outlive Run().
  const std::atomic<bool>* cancel = nullptr;
  /// Deterministic watchdog: abandon the run with kDeadlineExceeded after
  /// this many scheduled (non-fast-forwarded) ticks, independent of the
  /// horizon. 0 (default) is unlimited. Unlike `cancel`, the outcome
  /// depends only on the inputs, so campaigns that rely on byte-identical
  /// resume use this budget as the primary hang guard.
  Tick max_sim_ticks = 0;
};

/// Outcome of one run.
struct SimResult {
  /// Non-OK for configuration errors (InvalidArgument) and for invariant
  /// audit failures (Internal).
  Status status;
  RunMetrics metrics;
  Trace trace;
  History history;
  /// Populated when options.audit is set.
  AuditReport audit;
  bool deadlock_detected = false;
};

/// The single-processor, memory-resident-database, priority-driven
/// transaction scheduler of the paper, parameterized by a concurrency
/// control protocol. Discrete time; each tick the highest running-priority
/// job that can make progress executes (Section 5).
///
/// The inner loop is event-driven: arrivals come from a calendar cursor
/// (O(log specs) per release instead of an O(specs) scan per tick), jobs
/// leave the scan set the moment they commit or are dropped (the full
/// archive stays addressable by id for metrics, replay and the auditor),
/// and ticks where no job is in flight are fast-forwarded to the next
/// arrival while still being credited as idle — with traces, metrics and
/// audit reports bit-identical to the per-tick engine it replaced (pinned
/// by tests/determinism_test.cc).
class Simulator : public SimView {
 public:
  /// Convenience for a bare set: compiles it into a plan (lint off,
  /// which cannot fail) and delegates to the plan constructor. The plan
  /// owns a copy of `set`; `protocol` must outlive the simulator.
  Simulator(const TransactionSet* set, Protocol* protocol,
            SimulatorOptions options);
  /// Runs from the plan's precomputed ceilings and arrival cursor. The
  /// simulator keeps a copy of the plan (cheap: shared state), so `plan`
  /// itself need not outlive it.
  Simulator(const CompiledPlan& plan, Protocol* protocol,
            SimulatorOptions options);
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs the full simulation and returns the result. Call once.
  SimResult Run();

  // --- SimView ------------------------------------------------------------
  const TransactionSet& set() const override { return *set_; }
  const StaticCeilings& ceilings() const override { return *ceilings_; }
  const LockTable& locks() const override { return lock_table_; }
  const Database& database() const override { return database_; }
  const Job* job(JobId id) const override;
  Tick now() const override { return tick_; }
  std::vector<const Job*> LiveJobs(JobId except) const override;

 private:
  struct PendingBlock {
    ItemId item = kInvalidItem;
    LockMode mode = LockMode::kRead;
    BlockReason reason = BlockReason::kNone;
    std::vector<JobId> blockers;
    std::string note;
  };

  /// Pops the arrivals due at tick_ from the schedule override or the
  /// calendar cursor (both yield (tick, spec) order).
  std::vector<Arrival> TakeDueArrivals();
  /// Tick of the next not-yet-released arrival, or kNoTick if none left.
  Tick NextArrivalTick() const;
  /// With no job in flight, jumps tick_ to the next arrival (capped at the
  /// horizon), crediting idle_ticks and emitting the same idle TickRecords
  /// the per-tick loop would have. Only called when neither a fault plan
  /// (which may inject arrivals or consume per-tick randomness) nor the
  /// auditor (which inspects every tick) is attached.
  void FastForwardIdleGap();
  void ReleaseArrivals();
  void CheckDeadlines();
  /// Applies this tick's job faults (aborts, spurious restarts, WCET
  /// overruns) before dispatch resolution.
  void ApplyFaults();
  /// Runs the invariant auditor over the end-of-tick state.
  void AuditNow();
  /// Resolves this tick's dispatch: rebuilds blocking edges to a fixpoint
  /// and picks the runner. Returns the chosen job (nullptr if idle) and
  /// fills blocked_now_.
  Job* ResolveDispatch();
  /// Resets every active job to its base priority, then relaxes priority
  /// inheritance along the wait graph in place on Job::running_priority —
  /// the same fixpoint, in the same pass order, as the auditor's
  /// ComputeRunningPriorities oracle over the active jobs. With `moved`,
  /// appends the jobs whose running priority differs from before.
  void RelaxRunningPriorities(std::vector<Job*>* moved);
  /// After edges were only added from `waiter`, raises running priorities
  /// along the wait graph from it with a worklist, appending each raised
  /// job to `moved` — the least fixpoint a full relax would reach.
  void RaiseFrom(Job& waiter, std::vector<Job*>& moved);
  /// Handles at most one wait-for cycle per policy. Returns true when a
  /// cycle was found (the caller must re-resolve dispatch unless the run
  /// halted). Searches only when SetWaits has added an edge since the
  /// last search that found none.
  bool HandleOneDeadlock();
  /// Grants the pending lock for `job`'s current step, recording effects.
  void AdmitStep(Job& job);
  /// Runs one tick of `job`, handling step completion and commit.
  void ExecuteTick(Job& job);
  void CompleteStep(Job& job, const Step& step);
  void Commit(Job& job);
  /// Aborts a job (2PL-HP victim or deadlock victim): undoes in-place
  /// writes, releases locks, restarts from the first step.
  void AbortAndRestart(Job& victim, const char* why);
  void DropJob(Job& job);
  /// Moves a just-committed/dropped job out of the active scan set and
  /// the dispatch order; it stays in the jobs_ archive (and in
  /// retired_this_tick_ for this tick's audit).
  void RetireJob(Job& job);
  void RecordTick(const Job* runner, StepKind runner_kind);
  SpecMetrics& metrics_for(SpecId spec);

  /// True when the job's current step requires a lock it does not hold.
  bool NeedsLock(const Job& job) const;
  LockMode NeededMode(const Job& job) const;

  /// The compiled artifact this run executes. set_ and ceilings_ cache
  /// pointers into it: the hot path reads them on every decision, and
  /// the plan's accessors null-check on every call.
  CompiledPlan plan_;
  const TransactionSet* set_;
  const StaticCeilings* ceilings_;
  Protocol* protocol_;
  SimulatorOptions options_;

  Database database_;
  LockTable lock_table_;
  WaitGraph wait_graph_;
  Trace trace_;
  History history_;
  RunMetrics metrics_;

  Tick tick_ = 0;
  std::int64_t seq_ = 0;
  bool halted_ = false;
  /// Archive of every released job, owning, indexed by JobId. Retired
  /// (committed/dropped) jobs stay here for metrics, replay-checking and
  /// auditor lookups; only active_jobs_ is scanned per tick.
  std::vector<std::unique_ptr<Job>> jobs_;
  /// The per-tick scan set: jobs still in flight, in id (= release)
  /// order. Maintained by ReleaseArrivals and RetireJob.
  std::vector<Job*> active_jobs_;
  /// Jobs that retired during the current tick; the end-of-tick audit
  /// still sees their final state.
  std::vector<const Job*> retired_this_tick_;
  /// Event source when no arrival-schedule override is set.
  ArrivalCalendar::Cursor calendar_cursor_;
  /// Read position into options_.arrival_schedule->arrivals().
  std::size_t schedule_pos_ = 0;
  /// Jobs blocked this tick (job id -> details), rebuilt each tick.
  /// Dense slot maps (plan/job_arena.h) replace the former
  /// std::map<JobId, ...> hot state: same ascending-id iteration order,
  /// O(1) lookup, and slot storage that is reused across ticks instead
  /// of reallocated.
  JobSlotMap<PendingBlock> blocked_now_;
  /// Block annotation per job during the previous tick (for the kBlock
  /// edge trigger: a new episode OR a changed reason re-traces) and
  /// per-job effective-blocking accumulation.
  JobSlotMap<std::string> blocked_prev_;
  /// Next tick's blocked_prev_, built during RecordTick then swapped in
  /// so both maps keep their slot capacity.
  JobSlotMap<std::string> blocked_scratch_;
  JobSlotMap<Tick> effective_blocking_by_job_;
  /// Non-blocking decisions of the current resolution round that are
  /// read back: abort decisions, and with record_trace every grant (for
  /// its note).
  JobSlotMap<LockDecision> granted_decision_;
  /// The active jobs in dispatch order (scheduler.h), kept across
  /// resolutions: arrivals are appended, retirements erased, and each
  /// resolution repairs it by insertion sort. Job::dispatch_index() is
  /// every job's position in it.
  std::vector<Job*> dispatch_order_;
  /// Per-sweep scratch reused across dispatch resolutions: the sorted
  /// holder set of a kBlock decision, the stale waiters to clear, the
  /// jobs whose running priority moved, the inheritance worklist, and
  /// the running priorities before a full relax.
  std::vector<JobId> holders_scratch_;
  std::vector<JobId> stale_waiters_scratch_;
  std::vector<Job*> moved_scratch_;
  std::vector<Job*> raise_worklist_;
  std::vector<Priority> priority_scratch_;
  /// True when SetWaits has added an edge since the last FindCycle that
  /// found no cycle.
  bool wait_graph_grown_ = false;
  /// Min-heap (std::greater) of (absolute deadline, job id) for released
  /// jobs with a deadline. Entries of jobs that retire first stay until
  /// due and are skipped then.
  std::vector<std::pair<Tick, JobId>> deadline_heap_;
  std::vector<JobId> due_scratch_;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<InvariantAuditor> auditor_;
  bool ran_ = false;

  /// Cross-tick dispatch memo. Every input of ResolveDispatch — the
  /// active set, step cursors/admission flags, dynamic read sets, lock
  /// table, wait graph and protocol state — only changes at the marked
  /// mutation points (arrival, admission of a lock step, step
  /// completion, commit/drop/abort, fault application). Decide is pure
  /// by contract, so while dispatch_dirty_ stays false the previous
  /// tick's resolution (last_runner_, blocked_now_, wait edges) is
  /// reused verbatim; a job executing a k-tick step resolves O(1) times
  /// instead of k. Byte-identical by construction, pinned by
  /// tests/determinism_test.cc.
  bool dispatch_dirty_ = true;
  Job* last_runner_ = nullptr;

  /// Round stamp for the per-job decision memo (Job::DecidedInRound). A
  /// round is one pass of ResolveDispatch's outer loop, ended by abort
  /// applications; within it every Decide input except the requester's
  /// running priority is fixed (DESIGN.md §13).
  std::uint64_t dispatch_round_ = 0;
};

}  // namespace pcpda

#endif  // PCPDA_SCHED_SIMULATOR_H_
