#ifndef PCPDA_TXN_JOB_H_
#define PCPDA_TXN_JOB_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/types.h"
#include "db/value.h"
#include "txn/spec.h"
#include "txn/workspace.h"

namespace pcpda {

/// Lifecycle of a job.
enum class JobState : std::uint8_t {
  /// Released; may run or be blocked depending on locks and priority.
  kActive,
  /// Committed successfully.
  kCommitted,
  /// Dropped by the deadline-miss policy.
  kDropped,
};

const char* ToString(JobState state);

/// One released instance of a transaction spec. Owned by the simulator;
/// protocols observe jobs through const references.
class Job {
 public:
  Job(JobId id, const TransactionSet* set, SpecId spec_id, int instance,
      Tick release_time, Tick absolute_deadline);

  JobId id() const { return id_; }
  SpecId spec_id() const { return spec_id_; }
  const TransactionSpec& spec() const { return *spec_; }
  /// 0-based release index of this instance.
  int instance() const { return instance_; }
  Tick release_time() const { return release_time_; }
  /// Absolute deadline, or kNoTick if none.
  Tick absolute_deadline() const { return absolute_deadline_; }

  JobState state() const { return state_; }
  bool active() const { return state_ == JobState::kActive; }

  /// The original (assigned) priority P_i of the paper.
  Priority base_priority() const { return base_priority_; }
  /// The running priority: base priority possibly raised by inheritance.
  /// Maintained by the scheduler every tick.
  Priority running_priority() const { return running_priority_; }
  void set_running_priority(Priority p) { running_priority_ = p; }

  /// Dispatch-round decision memo, kept by the simulator: true when the
  /// protocol already decided this job's pending lock request in
  /// resolution round `round` at the job's current running priority.
  bool DecidedInRound(std::uint64_t round) const {
    return decided_round_ == round && decided_priority_ == running_priority_;
  }
  /// Records a decision in `round` at the current running priority.
  void MarkDecided(std::uint64_t round) {
    decided_round_ = round;
    decided_priority_ = running_priority_;
  }

  /// Position in the simulator's kept dispatch order, maintained by the
  /// dispatch-order helpers in sched/scheduler.h.
  std::size_t dispatch_index() const { return dispatch_index_; }
  void set_dispatch_index(std::size_t index) { dispatch_index_ = index; }

  // --- Execution progress -------------------------------------------------

  /// Index of the step the job executes next (== body size when done).
  std::size_t step_index() const { return step_index_; }
  /// Ticks still to execute in the current step.
  Tick remaining_in_step() const { return remaining_in_step_; }
  /// The current step. Requires !BodyDone().
  const Step& current_step() const;
  bool BodyDone() const { return step_index_ >= spec().body.size(); }
  /// True while the current step's lock has been granted (or none needed).
  bool step_admitted() const { return step_admitted_; }
  void set_step_admitted(bool admitted) { step_admitted_ = admitted; }

  /// Consumes one CPU tick; advances to the next step when the current one
  /// completes. Returns true if the tick finished a step.
  bool ExecuteTick();

  /// Extends the current step by `extra` ticks (injected WCET overrun).
  /// Requires an unfinished body and extra > 0.
  void InflateCurrentStep(Tick extra);

  /// Remaining execution demand in ticks.
  Tick RemainingWork() const;

  // --- Data state ---------------------------------------------------------

  /// DataRead(T_i) in the paper: the items this job has read so far.
  const std::set<ItemId>& data_read() const { return data_read_; }
  void RecordRead(ItemId item) { data_read_.insert(item); }

  /// WriteSet(T_i): statically declared items the job may write.
  const std::set<ItemId>& write_set() const { return set_->WriteSet(spec_id_); }

  Workspace& workspace() { return workspace_; }
  const Workspace& workspace() const { return workspace_; }

  /// Undo log for update-in-place protocols: the value each item held
  /// before this job's first in-place write of it. Restored on abort.
  void RecordUndo(ItemId item, const Value& before);
  const std::map<ItemId, Value>& undo_log() const { return undo_log_; }

  // --- Lifecycle ----------------------------------------------------------

  void MarkCommitted(Tick tick);
  void MarkDropped() { state_ = JobState::kDropped; }
  Tick commit_time() const { return commit_time_; }

  /// Restarts the job from its first step (2PL-HP abort). Clears progress,
  /// data-read set and workspace; the restart count increments.
  void ResetForRestart();
  int restarts() const { return restarts_; }

  /// Records that the deadline miss for this job has been counted.
  bool deadline_miss_recorded() const { return deadline_miss_recorded_; }
  void set_deadline_miss_recorded() { deadline_miss_recorded_ = true; }

  /// "T3#2" style label.
  std::string DebugName() const;

 private:
  JobId id_;
  const TransactionSet* set_;
  SpecId spec_id_;
  const TransactionSpec* spec_;
  int instance_;
  Tick release_time_;
  Tick absolute_deadline_;

  JobState state_ = JobState::kActive;
  Priority base_priority_;
  Priority running_priority_;
  /// Round and running priority of the last Decide (see DecidedInRound);
  /// round 0 never occurs, so a fresh job is undecided.
  std::uint64_t decided_round_ = 0;
  Priority decided_priority_;
  std::size_t dispatch_index_ = 0;

  std::size_t step_index_ = 0;
  Tick remaining_in_step_;
  bool step_admitted_ = false;

  std::set<ItemId> data_read_;
  Workspace workspace_;
  std::map<ItemId, Value> undo_log_;

  Tick commit_time_ = kNoTick;
  int restarts_ = 0;
  bool deadline_miss_recorded_ = false;
};

}  // namespace pcpda

#endif  // PCPDA_TXN_JOB_H_
