#ifndef PCPDA_SCHED_WAIT_GRAPH_H_
#define PCPDA_SCHED_WAIT_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "plan/job_arena.h"

namespace pcpda {

/// The wait-for graph: an edge waiter -> holder means the waiter's lock
/// request is currently denied because of the holder. Rebuilt every tick by
/// the simulator; a cycle is a deadlock.
///
/// Edges live in a dense JobId-indexed slot map (see plan/job_arena.h):
/// holder lists are sorted-unique vectors, so lookups are O(1), iteration
/// is in ascending waiter id, and steady-state edge churn allocates
/// nothing — byte-identical to the std::map<JobId, std::set<JobId>> it
/// replaced.
class WaitGraph {
 public:
  void Clear();

  /// How SetWaits changed the waiter's outgoing edges.
  struct EdgeChange {
    /// Some holder is new: only an added edge can close a cycle or raise
    /// a running priority.
    bool added = false;
    /// Some former holder is gone.
    bool removed = false;
  };

  /// Replaces the waiter's outgoing edges. Duplicate holders collapse.
  EdgeChange SetWaits(JobId waiter, std::vector<JobId> holders);
  void ClearWaits(JobId waiter);

  bool IsWaiting(JobId waiter) const;
  /// Holders blocking `waiter`, ascending by id; empty when not waiting.
  const std::vector<JobId>& HoldersBlocking(JobId waiter) const;
  /// Jobs currently waiting (have outgoing edges), ascending by id.
  std::vector<JobId> waiters() const;
  /// Same ids without the copy; invalidated by any mutation.
  const std::vector<JobId>& waiter_ids() const { return edges_.ids(); }

  /// Finds a wait-for cycle if one exists. The returned cycle lists each
  /// member once, starting from the smallest job id in the cycle. Costs
  /// O(E log V) in the graph's own edges and nodes, independent of how
  /// many jobs were ever released.
  std::optional<std::vector<JobId>> FindCycle() const;

  std::string DebugString() const;

 private:
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };

  JobSlotMap<std::vector<JobId>> edges_;

  /// FindCycle scratch, reused across calls: the graph's nodes (waiters
  /// and holders, sorted unique), their DFS colours (parallel), the DFS
  /// stack of (node, next successor index) and the current path.
  mutable std::vector<JobId> dfs_nodes_;
  mutable std::vector<Color> dfs_colors_;
  mutable std::vector<std::pair<JobId, std::size_t>> dfs_stack_;
  mutable std::vector<JobId> dfs_path_;

  static const std::vector<JobId> kNoHolders;
};

}  // namespace pcpda

#endif  // PCPDA_SCHED_WAIT_GRAPH_H_
