#include "txn/job.h"

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

const char* ToString(JobState state) {
  switch (state) {
    case JobState::kActive:
      return "active";
    case JobState::kCommitted:
      return "committed";
    case JobState::kDropped:
      return "dropped";
  }
  return "unknown";
}

Job::Job(JobId id, const TransactionSet* set, SpecId spec_id, int instance,
         Tick release_time, Tick absolute_deadline)
    : id_(id),
      set_(set),
      spec_id_(spec_id),
      spec_(&set->spec(spec_id)),
      instance_(instance),
      release_time_(release_time),
      absolute_deadline_(absolute_deadline),
      base_priority_(set->priority(spec_id)),
      running_priority_(base_priority_),
      remaining_in_step_(spec_->body.front().duration) {}

const Step& Job::current_step() const {
  PCPDA_CHECK(!BodyDone());
  return spec().body[step_index_];
}

bool Job::ExecuteTick() {
  PCPDA_CHECK(!BodyDone());
  PCPDA_CHECK(remaining_in_step_ > 0);
  --remaining_in_step_;
  if (remaining_in_step_ > 0) return false;
  ++step_index_;
  step_admitted_ = false;
  if (!BodyDone()) {
    remaining_in_step_ = current_step().duration;
  }
  return true;
}

void Job::InflateCurrentStep(Tick extra) {
  PCPDA_CHECK(!BodyDone());
  PCPDA_CHECK(extra > 0);
  remaining_in_step_ += extra;
}

Tick Job::RemainingWork() const {
  if (BodyDone()) return 0;
  Tick total = remaining_in_step_;
  const auto& body = spec().body;
  for (std::size_t i = step_index_ + 1; i < body.size(); ++i) {
    total += body[i].duration;
  }
  return total;
}

void Job::MarkCommitted(Tick tick) {
  PCPDA_CHECK(state_ == JobState::kActive);
  PCPDA_CHECK(BodyDone());
  state_ = JobState::kCommitted;
  commit_time_ = tick;
}

void Job::RecordUndo(ItemId item, const Value& before) {
  // First write wins: the oldest pre-image is what an abort must restore.
  undo_log_.try_emplace(item, before);
}

void Job::ResetForRestart() {
  PCPDA_CHECK(state_ == JobState::kActive);
  step_index_ = 0;
  remaining_in_step_ = spec().body.front().duration;
  step_admitted_ = false;
  data_read_.clear();
  workspace_.Clear();
  undo_log_.clear();
  ++restarts_;
}

std::string Job::DebugName() const {
  return StrFormat("%s#%d", spec().name.c_str(), instance_);
}

}  // namespace pcpda
