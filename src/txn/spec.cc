#include "txn/spec.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

Tick TransactionSpec::ExecutionTime() const {
  Tick total = 0;
  for (const Step& step : body) total += step.duration;
  return total;
}

std::set<ItemId> TransactionSpec::ReadSet() const {
  std::set<ItemId> items;
  for (const Step& step : body) {
    if (step.kind == StepKind::kRead) items.insert(step.item);
  }
  return items;
}

std::set<ItemId> TransactionSpec::WriteSet() const {
  std::set<ItemId> items;
  for (const Step& step : body) {
    if (step.kind == StepKind::kWrite) items.insert(step.item);
  }
  return items;
}

std::set<ItemId> TransactionSpec::AccessSet() const {
  std::set<ItemId> items = ReadSet();
  std::set<ItemId> writes = WriteSet();
  items.insert(writes.begin(), writes.end());
  return items;
}

std::string Step::DebugString() const {
  switch (kind) {
    case StepKind::kCompute:
      return StrFormat("Compute(%lld)", static_cast<long long>(duration));
    case StepKind::kRead:
      return StrFormat("Read(d%d,%lld)", item,
                       static_cast<long long>(duration));
    case StepKind::kWrite:
      return StrFormat("Write(d%d,%lld)", item,
                       static_cast<long long>(duration));
  }
  PCPDA_UNREACHABLE("bad StepKind");
}

std::string TransactionSpec::DebugString() const {
  std::vector<std::string> steps;
  steps.reserve(body.size());
  for (const Step& step : body) steps.push_back(step.DebugString());
  return StrFormat("%s{period=%lld offset=%lld body=[%s]}", name.c_str(),
                   static_cast<long long>(period),
                   static_cast<long long>(offset),
                   Join(steps, ", ").c_str());
}

namespace {

Status ValidateSpec(const TransactionSpec& spec, int index) {
  const std::string tag =
      spec.name.empty() ? StrFormat("spec #%d", index) : spec.name;
  if (spec.body.empty()) {
    return Status::InvalidArgument(tag + ": empty body");
  }
  if (spec.period < 0 || spec.offset < 0 || spec.relative_deadline < 0) {
    return Status::InvalidArgument(tag +
                                   ": negative period/offset/deadline");
  }
  if (spec.period > 0 && spec.relative_deadline > spec.period) {
    return Status::InvalidArgument(
        tag + ": deadline exceeds period (the paper assumes deadline at "
              "the end of the period)");
  }
  for (const Step& step : spec.body) {
    if (step.duration <= 0) {
      return Status::InvalidArgument(tag + ": non-positive step duration");
    }
    const bool data_step = step.kind != StepKind::kCompute;
    if (data_step && step.item < 0) {
      return Status::InvalidArgument(tag + ": data step with invalid item");
    }
    if (!data_step && step.item != kInvalidItem) {
      return Status::InvalidArgument(tag + ": compute step names an item");
    }
  }
  // An execution time exceeding the deadline or period makes the spec
  // infeasible but still simulatable (overload and miss-policy
  // experiments rely on that), so it is deliberately not rejected here;
  // the offline analyses report such sets as unschedulable.
  return Status::Ok();
}

}  // namespace

TransactionSet::TransactionSet(std::vector<TransactionSpec> specs)
    : specs_(std::move(specs)) {
  read_sets_.reserve(specs_.size());
  write_sets_.reserve(specs_.size());
  for (const TransactionSpec& spec : specs_) {
    read_sets_.push_back(spec.ReadSet());
    write_sets_.push_back(spec.WriteSet());
    for (const Step& step : spec.body) {
      if (step.kind != StepKind::kCompute) {
        item_count_ = std::max(item_count_, step.item + 1);
      }
    }
  }
}

StatusOr<TransactionSet> TransactionSet::Create(
    std::vector<TransactionSpec> specs, PriorityAssignment assignment) {
  if (specs.empty()) {
    return Status::InvalidArgument("transaction set is empty");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    PCPDA_RETURN_IF_ERROR(ValidateSpec(specs[i], static_cast<int>(i)));
  }
  if (assignment != PriorityAssignment::kAsListed) {
    // Stable sort: periodic specs by the monotonic key (shorter = higher
    // priority), then one-shot specs in listed order. The DM key is the
    // effective relative deadline; the RM key is the period.
    const bool dm = assignment == PriorityAssignment::kDeadlineMonotonic;
    auto key = [dm](const TransactionSpec& spec) {
      if (dm && spec.relative_deadline > 0) return spec.relative_deadline;
      return spec.period;
    };
    std::stable_sort(specs.begin(), specs.end(),
                     [&key](const TransactionSpec& a,
                            const TransactionSpec& b) {
                       const bool a_periodic = a.period > 0;
                       const bool b_periodic = b.period > 0;
                       if (a_periodic != b_periodic) return a_periodic;
                       if (!a_periodic) return false;  // keep listed order
                       return key(a) < key(b);
                     });
  }
  // Fill default names after ordering so "T1" is the highest priority.
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name.empty()) {
      specs[i].name = StrFormat("T%d", static_cast<int>(i) + 1);
    }
    if (!names.insert(specs[i].name).second) {
      return Status::InvalidArgument("duplicate spec name: " +
                                     specs[i].name);
    }
  }
  return TransactionSet(std::move(specs));
}

const TransactionSpec& TransactionSet::spec(SpecId id) const {
  PCPDA_CHECK(id >= 0 && id < size());
  return specs_[static_cast<std::size_t>(id)];
}

Priority TransactionSet::priority(SpecId id) const {
  PCPDA_CHECK(id >= 0 && id < size());
  return PriorityForSpecIndex(id, size());
}

const std::set<ItemId>& TransactionSet::ReadSet(SpecId id) const {
  PCPDA_CHECK(id >= 0 && id < size());
  return read_sets_[static_cast<std::size_t>(id)];
}

const std::set<ItemId>& TransactionSet::WriteSet(SpecId id) const {
  PCPDA_CHECK(id >= 0 && id < size());
  return write_sets_[static_cast<std::size_t>(id)];
}

Tick TransactionSet::RelativeDeadline(SpecId id) const {
  const TransactionSpec& s = spec(id);
  if (s.relative_deadline > 0) return s.relative_deadline;
  if (s.period > 0) return s.period;
  return kNoTick;
}

double TransactionSet::Utilization() const {
  double total = 0.0;
  for (const TransactionSpec& spec : specs_) {
    if (spec.period > 0) {
      total += static_cast<double>(spec.ExecutionTime()) /
               static_cast<double>(spec.period);
    }
  }
  return total;
}

Tick TransactionSet::Hyperperiod() const {
  Tick lcm = 0;
  for (const TransactionSpec& spec : specs_) {
    if (spec.period <= 0) continue;
    if (lcm == 0) {
      lcm = spec.period;
      continue;
    }
    const Tick g = std::gcd(lcm, spec.period);
    const Tick factor = spec.period / g;
    if (lcm > kNoTick / factor) return kNoTick;  // saturate
    lcm *= factor;
  }
  return lcm;
}

std::string TransactionSet::DebugString() const {
  std::vector<std::string> lines;
  lines.reserve(specs_.size());
  for (SpecId i = 0; i < size(); ++i) {
    lines.push_back(StrFormat("[P=%d] %s", priority(i).level(),
                              specs_[static_cast<std::size_t>(i)]
                                  .DebugString()
                                  .c_str()));
  }
  return Join(lines, "\n");
}

}  // namespace pcpda
