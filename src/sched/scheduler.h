#ifndef PCPDA_SCHED_SCHEDULER_H_
#define PCPDA_SCHED_SCHEDULER_H_

#include <map>
#include <vector>

#include "common/types.h"
#include "txn/job.h"

namespace pcpda {

/// Sorts active jobs into dispatch order: descending running priority,
/// then descending base priority (so a transaction donating its priority
/// is considered before the blocker that inherited it), then FIFO by
/// release time, then job id. The first job in this order that can make
/// progress gets the processor — the paper's priority-driven scheduling.
std::vector<Job*> DispatchOrder(
    const std::vector<Job*>& active,
    const std::map<JobId, Priority>& running_priorities);

/// The simulator's in-place variant: re-sorts an order that was sorted
/// before a few running priorities moved or a few jobs were appended or
/// removed, by insertion sort — O(n + inversions), no allocation. It
/// reads each job's running priority from the job itself (the caller has
/// just relaxed inheritance on the jobs). The order is strict and total,
/// so the result is the one DispatchOrder returns. Requires every job's
/// dispatch_index() to match its position on entry and keeps it so.
/// Returns the first position whose job changed (order.size() when none
/// did).
std::size_t ResortDispatchOrder(std::vector<Job*>& order);

/// Appends a newly released job to a kept dispatch order; the next
/// ResortDispatchOrder moves it into place.
void AppendToDispatchOrder(std::vector<Job*>& order, Job* job);

/// Removes a retired job from a kept dispatch order, keeping every later
/// job's dispatch_index() equal to its new position.
void RemoveFromDispatchOrder(std::vector<Job*>& order, const Job& job);

}  // namespace pcpda

#endif  // PCPDA_SCHED_SCHEDULER_H_
