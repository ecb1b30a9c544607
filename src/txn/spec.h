#ifndef PCPDA_TXN_SPEC_H_
#define PCPDA_TXN_SPEC_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/step.h"

namespace pcpda {

/// A static transaction description: either a periodic transaction (the
/// paper's model: released every `period` ticks with deadline at the end of
/// the period) or a one-shot transaction (period == 0, released once at
/// `offset`; used by the paper's worked examples).
///
/// Passive data carrier; TransactionSet::Create validates it and assigns
/// priorities.
struct TransactionSpec {
  /// Display name, e.g. "T1". Must be unique within a set; empty names are
  /// auto-filled as "T<i+1>".
  std::string name;
  /// Release period in ticks; 0 means one-shot.
  Tick period = 0;
  /// First release time (phase), >= 0.
  Tick offset = 0;
  /// Deadline relative to release. 0 means "use the period" for periodic
  /// transactions and "none" for one-shot transactions.
  Tick relative_deadline = 0;
  /// The transaction body, executed in order.
  std::vector<Step> body;

  /// Sum of step durations: the execution time C_i.
  Tick ExecutionTime() const;
  /// Items the transaction may read (from kRead steps).
  std::set<ItemId> ReadSet() const;
  /// WriteSet(T_i) in the paper: items the transaction may write.
  std::set<ItemId> WriteSet() const;
  /// All items touched.
  std::set<ItemId> AccessSet() const;

  std::string DebugString() const;
};

/// How TransactionSet::Create orders priorities.
enum class PriorityAssignment {
  /// Rate-monotonic: shorter period = higher priority (the paper's
  /// assumption). One-shot specs keep their listed order after periodic
  /// ones of shorter period; ties broken by listed order.
  kRateMonotonic,
  /// The listed order is the priority order: the first spec is T_1, the
  /// highest priority (used by the paper's worked examples).
  kAsListed,
  /// Deadline-monotonic (extension): shorter effective relative deadline
  /// (explicit deadline, else period) = higher priority. Optimal among
  /// fixed-priority assignments when deadlines may be shorter than
  /// periods.
  kDeadlineMonotonic,
};

/// An immutable, validated set of transaction specs with a total priority
/// order. Index 0 is T_1 in the paper (highest priority); the priority of
/// spec i compares higher than spec j whenever i < j.
class TransactionSet {
 public:
  /// Validates and orders `specs`. Fails if a spec has an empty body, a
  /// non-positive step duration, a missing item id on a data step, a
  /// negative offset/period/deadline, a deadline exceeding the period, or a
  /// duplicate name.
  static StatusOr<TransactionSet> Create(
      std::vector<TransactionSpec> specs,
      PriorityAssignment assignment = PriorityAssignment::kRateMonotonic);

  SpecId size() const { return static_cast<SpecId>(specs_.size()); }
  const TransactionSpec& spec(SpecId id) const;
  /// P_i in the paper. Higher for smaller i.
  Priority priority(SpecId id) const;
  /// TransactionSpec::ReadSet / WriteSet of spec `id`, computed once at
  /// construction so the locking rules read them without allocating.
  const std::set<ItemId>& ReadSet(SpecId id) const;
  const std::set<ItemId>& WriteSet(SpecId id) const;
  /// Deadline relative to release, or kNoTick if the spec has none.
  Tick RelativeDeadline(SpecId id) const;

  /// One more than the largest item id referenced by any spec (0 if no
  /// data steps exist).
  ItemId item_count() const { return item_count_; }

  /// Total processor utilization sum(C_i / Pd_i) over periodic specs.
  double Utilization() const;

  /// Hyperperiod (LCM of periods) of the periodic specs, or 0 if none.
  /// Saturates at kNoTick on overflow.
  Tick Hyperperiod() const;

  std::string DebugString() const;

 private:
  explicit TransactionSet(std::vector<TransactionSpec> specs);

  std::vector<TransactionSpec> specs_;
  /// Parallel to specs_.
  std::vector<std::set<ItemId>> read_sets_;
  std::vector<std::set<ItemId>> write_sets_;
  ItemId item_count_ = 0;
};

}  // namespace pcpda

#endif  // PCPDA_TXN_SPEC_H_
