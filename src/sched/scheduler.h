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

/// In-place variant for the simulator's hot loop: sorts `order` by the
/// same strict total order, reading each job's running priority from the
/// job itself (the caller has just relaxed inheritance on the jobs). No
/// per-call allocation.
void SortDispatchOrder(std::vector<Job*>& order);

/// Re-sorts an order that SortDispatchOrder produced before a few running
/// priorities moved, by insertion sort: O(n + inversions) instead of
/// O(n log n). The order is strict and total, so the result is the one
/// SortDispatchOrder would return.
void ResortDispatchOrder(std::vector<Job*>& order);

}  // namespace pcpda

#endif  // PCPDA_SCHED_SCHEDULER_H_
