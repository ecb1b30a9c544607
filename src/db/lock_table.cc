#include "db/lock_table.h"

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

const std::set<JobId> LockTable::kNoJobs;
const std::set<ItemId> LockTable::kNoItems;

LockTable::LockTable(ItemId item_count) {
  PCPDA_CHECK(item_count >= 0);
  entries_.resize(static_cast<std::size_t>(item_count));
}

const LockTable::ItemEntry& LockTable::entry(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return entries_[static_cast<std::size_t>(item)];
}

void LockTable::AcquireRead(JobId job, ItemId item) {
  PCPDA_CHECK(item >= 0 && item < item_count());
  auto& e = entries_[static_cast<std::size_t>(item)];
  if (e.readers.insert(job).second) {
    by_job_[job].read_items.insert(item);
    ++lock_count_;
  }
}

void LockTable::AcquireWrite(JobId job, ItemId item) {
  PCPDA_CHECK(item >= 0 && item < item_count());
  auto& e = entries_[static_cast<std::size_t>(item)];
  if (e.writers.insert(job).second) {
    by_job_[job].write_items.insert(item);
    ++lock_count_;
  }
}

void LockTable::Release(JobId job, ItemId item, LockMode mode) {
  PCPDA_CHECK(item >= 0 && item < item_count());
  auto& e = entries_[static_cast<std::size_t>(item)];
  JobEntry* held = by_job_.find(job);
  PCPDA_CHECK_MSG(held != nullptr, "job holds no locks");
  if (mode == LockMode::kRead) {
    PCPDA_CHECK_MSG(e.readers.erase(job) == 1, "read lock not held");
    held->read_items.erase(item);
  } else {
    PCPDA_CHECK_MSG(e.writers.erase(job) == 1, "write lock not held");
    held->write_items.erase(item);
  }
  --lock_count_;
  if (held->empty()) by_job_.erase(job);
}

void LockTable::ReleaseAll(JobId job) {
  JobEntry* held = by_job_.find(job);
  if (held == nullptr) return;
  for (ItemId item : held->read_items) {
    entries_[static_cast<std::size_t>(item)].readers.erase(job);
    --lock_count_;
  }
  for (ItemId item : held->write_items) {
    entries_[static_cast<std::size_t>(item)].writers.erase(job);
    --lock_count_;
  }
  by_job_.erase(job);
}

bool LockTable::HoldsRead(JobId job, ItemId item) const {
  return entry(item).readers.contains(job);
}

bool LockTable::HoldsWrite(JobId job, ItemId item) const {
  return entry(item).writers.contains(job);
}

bool LockTable::HoldsAny(JobId job, ItemId item) const {
  return HoldsRead(job, item) || HoldsWrite(job, item);
}

const std::set<JobId>& LockTable::readers(ItemId item) const {
  return entry(item).readers;
}

const std::set<JobId>& LockTable::writers(ItemId item) const {
  return entry(item).writers;
}

bool LockTable::NoReaderOtherThan(JobId job, ItemId item) const {
  const auto& r = entry(item).readers;
  if (r.empty()) return true;
  return r.size() == 1 && r.contains(job);
}

bool LockTable::NoWriterOtherThan(JobId job, ItemId item) const {
  const auto& w = entry(item).writers;
  if (w.empty()) return true;
  return w.size() == 1 && w.contains(job);
}

const std::set<ItemId>& LockTable::read_items(JobId job) const {
  const JobEntry* held = by_job_.find(job);
  return held == nullptr ? kNoItems : held->read_items;
}

const std::set<ItemId>& LockTable::write_items(JobId job) const {
  const JobEntry* held = by_job_.find(job);
  return held == nullptr ? kNoItems : held->write_items;
}

std::string LockTable::DebugString() const {
  std::vector<std::string> parts;
  for (ItemId i = 0; i < item_count(); ++i) {
    const auto& e = entries_[static_cast<std::size_t>(i)];
    if (e.readers.empty() && e.writers.empty()) continue;
    std::vector<std::string> holders;
    for (JobId j : e.readers) {
      holders.push_back(StrFormat("r:%lld", static_cast<long long>(j)));
    }
    for (JobId j : e.writers) {
      holders.push_back(StrFormat("w:%lld", static_cast<long long>(j)));
    }
    parts.push_back(
        StrFormat("d%d{%s}", i, Join(holders, ",").c_str()));
  }
  return parts.empty() ? "(no locks)" : Join(parts, " ");
}

}  // namespace pcpda
