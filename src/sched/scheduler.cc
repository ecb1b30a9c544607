#include "sched/scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace pcpda {
namespace {

/// The dispatch comparator is a strict total order (job id breaks every
/// tie), so the non-stable std::sort is deterministic.
bool DispatchBefore(const Job* a, const Priority& ra, const Job* b,
                    const Priority& rb) {
  if (ra != rb) return ra > rb;
  if (a->base_priority() != b->base_priority()) {
    return a->base_priority() > b->base_priority();
  }
  if (a->release_time() != b->release_time()) {
    return a->release_time() < b->release_time();
  }
  return a->id() < b->id();
}

bool RunningBefore(const Job* a, const Job* b) {
  return DispatchBefore(a, a->running_priority(), b, b->running_priority());
}

}  // namespace

std::vector<Job*> DispatchOrder(
    const std::vector<Job*>& active,
    const std::map<JobId, Priority>& running_priorities) {
  std::vector<Job*> order = active;
  auto running = [&](const Job* job) {
    auto it = running_priorities.find(job->id());
    PCPDA_CHECK_MSG(it != running_priorities.end(),
                    "active job missing a running priority");
    return it->second;
  };
  std::sort(order.begin(), order.end(), [&](const Job* a, const Job* b) {
    return DispatchBefore(a, running(a), b, running(b));
  });
  return order;
}

std::size_t ResortDispatchOrder(std::vector<Job*>& order) {
  std::size_t first_changed = order.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    Job* const job = order[i];
    std::size_t at = i;
    for (; at > 0 && RunningBefore(job, order[at - 1]); --at) {
      order[at] = order[at - 1];
    }
    if (at != i) {
      order[at] = job;
      first_changed = std::min(first_changed, at);
    }
  }
  // Positions before the first change kept their jobs, and with them
  // their indices.
  for (std::size_t i = first_changed; i < order.size(); ++i) {
    order[i]->set_dispatch_index(i);
  }
  return first_changed;
}

void AppendToDispatchOrder(std::vector<Job*>& order, Job* job) {
  job->set_dispatch_index(order.size());
  order.push_back(job);
}

void RemoveFromDispatchOrder(std::vector<Job*>& order, const Job& job) {
  const std::size_t at = job.dispatch_index();
  PCPDA_CHECK_MSG(at < order.size() && order[at] == &job,
                  "job is not at its dispatch index");
  order.erase(order.begin() + static_cast<std::ptrdiff_t>(at));
  for (std::size_t i = at; i < order.size(); ++i) {
    order[i]->set_dispatch_index(i);
  }
}

}  // namespace pcpda
