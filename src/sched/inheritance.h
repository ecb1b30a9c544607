#ifndef PCPDA_SCHED_INHERITANCE_H_
#define PCPDA_SCHED_INHERITANCE_H_

#include <map>

#include "common/types.h"
#include "sched/wait_graph.h"

namespace pcpda {

/// Computes running priorities under (transitive) priority inheritance:
///
///   running(j) = max(base(j), max over waiters w blocked on j of
///                              running(w))
///
/// A blocker executes at the highest priority among the transactions it
/// (transitively) blocks, and returns to its base priority when the waits
/// disappear — the paper's inheritance mechanism. With inheritance
/// disabled (2PL-HP) every job runs at its base priority.
///
/// The fixpoint is well defined even on cyclic wait graphs (a deadlock
/// collapses the cycle to its maximum priority); the caller detects and
/// handles deadlocks separately.
///
/// The simulator relaxes the same fixpoint in place on its jobs
/// (Simulator::RelaxRunningPriorities); this map version is the
/// invariant auditor's independent oracle for it.
std::map<JobId, Priority> ComputeRunningPriorities(
    const std::map<JobId, Priority>& base, const WaitGraph& waits,
    bool enable_inheritance);

}  // namespace pcpda

#endif  // PCPDA_SCHED_INHERITANCE_H_
