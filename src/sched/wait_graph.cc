#include "sched/wait_graph.h"

#include <algorithm>

#include "common/strings.h"

namespace pcpda {

const std::vector<JobId> WaitGraph::kNoHolders;

void WaitGraph::Clear() { edges_.clear(); }

WaitGraph::EdgeChange WaitGraph::SetWaits(JobId waiter,
                                          std::vector<JobId> holders) {
  std::sort(holders.begin(), holders.end());
  holders.erase(std::unique(holders.begin(), holders.end()),
                holders.end());
  const std::vector<JobId>& before = HoldersBlocking(waiter);
  EdgeChange change;
  change.added = !std::includes(before.begin(), before.end(),
                                holders.begin(), holders.end());
  change.removed = !std::includes(holders.begin(), holders.end(),
                                  before.begin(), before.end());
  if (holders.empty()) {
    edges_.erase(waiter);
  } else {
    edges_[waiter] = std::move(holders);
  }
  return change;
}

void WaitGraph::ClearWaits(JobId waiter) { edges_.erase(waiter); }

bool WaitGraph::IsWaiting(JobId waiter) const {
  return edges_.contains(waiter);
}

const std::vector<JobId>& WaitGraph::HoldersBlocking(JobId waiter) const {
  const std::vector<JobId>* holders = edges_.find(waiter);
  return holders == nullptr ? kNoHolders : *holders;
}

std::vector<JobId> WaitGraph::waiters() const { return edges_.ids(); }

std::optional<std::vector<JobId>> WaitGraph::FindCycle() const {
  if (edges_.empty()) return std::nullopt;
  // Colours live in a flat array over the graph's own nodes, found by
  // binary search, so a call never touches memory sized by the largest
  // job id.
  dfs_nodes_.assign(edges_.ids().begin(), edges_.ids().end());
  for (JobId waiter : edges_.ids()) {
    const std::vector<JobId>& holders = edges_.at(waiter);
    dfs_nodes_.insert(dfs_nodes_.end(), holders.begin(), holders.end());
  }
  std::sort(dfs_nodes_.begin(), dfs_nodes_.end());
  dfs_nodes_.erase(std::unique(dfs_nodes_.begin(), dfs_nodes_.end()),
                   dfs_nodes_.end());
  dfs_colors_.assign(dfs_nodes_.size(), Color::kWhite);
  auto paint = [this](JobId id) -> Color& {
    const auto at =
        std::lower_bound(dfs_nodes_.begin(), dfs_nodes_.end(), id);
    return dfs_colors_[static_cast<std::size_t>(at - dfs_nodes_.begin())];
  };
  // Recursive DFS expressed iteratively via an explicit stack of
  // (node, next successor index); each root's walk empties the stack.
  std::vector<std::pair<JobId, std::size_t>>& stack = dfs_stack_;
  std::vector<JobId>& path = dfs_path_;
  stack.clear();
  auto successors = [this](JobId node) -> const std::vector<JobId>& {
    return HoldersBlocking(node);
  };
  for (JobId root : edges_.ids()) {
    if (paint(root) != Color::kWhite) continue;
    paint(root) = Color::kGray;
    stack.emplace_back(root, 0);
    path.assign(1, root);
    while (!stack.empty()) {
      auto& [node, next_index] = stack.back();
      const std::vector<JobId>& succ = successors(node);
      if (next_index == succ.size()) {
        paint(node) = Color::kBlack;
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const JobId next = succ[next_index++];
      if (paint(next) == Color::kGray) {
        // Cycle: slice the current path from `next` onwards.
        auto start = std::find(path.begin(), path.end(), next);
        std::vector<JobId> cycle(start, path.end());
        // Rotate so the smallest id comes first (stable for tests).
        auto smallest = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), smallest, cycle.end());
        return cycle;
      }
      if (paint(next) == Color::kWhite) {
        paint(next) = Color::kGray;
        stack.emplace_back(next, 0);
        path.push_back(next);
      }
    }
  }
  return std::nullopt;
}

std::string WaitGraph::DebugString() const {
  std::vector<std::string> lines;
  for (JobId waiter : edges_.ids()) {
    std::vector<std::string> ids;
    const std::vector<JobId>& holders = edges_.at(waiter);
    ids.reserve(holders.size());
    for (JobId h : holders) {
      ids.push_back(StrFormat("%lld", static_cast<long long>(h)));
    }
    lines.push_back(StrFormat("%lld waits-for {%s}",
                              static_cast<long long>(waiter),
                              Join(ids, ",").c_str()));
  }
  return lines.empty() ? "(no waits)" : Join(lines, "\n");
}

}  // namespace pcpda
