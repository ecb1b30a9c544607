#include <gtest/gtest.h>

#include "sim/calendar.h"
#include "txn/spec.h"

namespace pcpda {
namespace {

TransactionSpec Periodic(std::string name, Tick period, Tick offset,
                         std::vector<Step> body) {
  TransactionSpec spec;
  spec.name = std::move(name);
  spec.period = period;
  spec.offset = offset;
  spec.body = std::move(body);
  return spec;
}

TransactionSpec OneShot(std::string name, Tick offset,
                        std::vector<Step> body) {
  return Periodic(std::move(name), 0, offset, std::move(body));
}

// --- Step ----------------------------------------------------------------

TEST(StepTest, Constructors) {
  const Step c = Compute(3);
  EXPECT_EQ(c.kind, StepKind::kCompute);
  EXPECT_EQ(c.item, kInvalidItem);
  EXPECT_EQ(c.duration, 3);

  const Step r = Read(4);
  EXPECT_EQ(r.kind, StepKind::kRead);
  EXPECT_EQ(r.item, 4);
  EXPECT_EQ(r.duration, 1);

  const Step w = Write(2, 5);
  EXPECT_EQ(w.kind, StepKind::kWrite);
  EXPECT_EQ(w.item, 2);
  EXPECT_EQ(w.duration, 5);
}

TEST(StepTest, DebugString) {
  EXPECT_EQ(Compute(2).DebugString(), "Compute(2)");
  EXPECT_EQ(Read(1).DebugString(), "Read(d1,1)");
  EXPECT_EQ(Write(0, 3).DebugString(), "Write(d0,3)");
}

// --- TransactionSpec -------------------------------------------------------

TEST(TransactionSpecTest, DerivedSets) {
  TransactionSpec spec = OneShot(
      "T", 0, {Read(0), Write(1), Compute(2), Read(1), Write(0)});
  EXPECT_EQ(spec.ExecutionTime(), 6);
  EXPECT_EQ(spec.ReadSet(), (std::set<ItemId>{0, 1}));
  EXPECT_EQ(spec.WriteSet(), (std::set<ItemId>{0, 1}));
  EXPECT_EQ(spec.AccessSet(), (std::set<ItemId>{0, 1}));
}

TEST(TransactionSpecTest, SetCachesDerivedSetsPerSpec) {
  auto set = TransactionSet::Create(
      {OneShot("A", 0, {Read(0), Write(2), Read(1)}),
       OneShot("B", 0, {Compute(1)})},
      PriorityAssignment::kAsListed);
  ASSERT_TRUE(set.ok());
  for (SpecId i = 0; i < set->size(); ++i) {
    EXPECT_EQ(set->ReadSet(i), set->spec(i).ReadSet());
    EXPECT_EQ(set->WriteSet(i), set->spec(i).WriteSet());
  }
  EXPECT_EQ(set->ReadSet(0), (std::set<ItemId>{0, 1}));
  EXPECT_TRUE(set->WriteSet(1).empty());
  // Same object on every call: the locking rules read it by reference.
  EXPECT_EQ(&set->WriteSet(0), &set->WriteSet(0));
}

TEST(TransactionSpecTest, ComputeOnlyBody) {
  TransactionSpec spec = OneShot("T", 0, {Compute(5)});
  EXPECT_EQ(spec.ExecutionTime(), 5);
  EXPECT_TRUE(spec.ReadSet().empty());
  EXPECT_TRUE(spec.WriteSet().empty());
}

// --- TransactionSet validation --------------------------------------------

TEST(TransactionSetTest, RejectsEmptySet) {
  auto set = TransactionSet::Create({});
  EXPECT_FALSE(set.ok());
  EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransactionSetTest, RejectsEmptyBody) {
  TransactionSpec spec;
  spec.period = 10;
  auto set = TransactionSet::Create({spec});
  EXPECT_FALSE(set.ok());
}

TEST(TransactionSetTest, RejectsNonPositiveDuration) {
  TransactionSpec spec = Periodic("T", 10, 0, {Compute(0)});
  EXPECT_FALSE(TransactionSet::Create({spec}).ok());
}

TEST(TransactionSetTest, RejectsComputeWithItem) {
  TransactionSpec spec = Periodic("T", 10, 0, {Compute(1)});
  spec.body[0].item = 3;
  EXPECT_FALSE(TransactionSet::Create({spec}).ok());
}

TEST(TransactionSetTest, RejectsDataStepWithoutItem) {
  TransactionSpec spec = Periodic("T", 10, 0, {Read(0)});
  spec.body[0].item = kInvalidItem;
  EXPECT_FALSE(TransactionSet::Create({spec}).ok());
}

TEST(TransactionSetTest, AcceptsInfeasibleExecutionTime) {
  // Overload experiments simulate infeasible specs; the offline analyses
  // are what reject them.
  TransactionSpec spec = Periodic("T", 3, 0, {Compute(4)});
  EXPECT_TRUE(TransactionSet::Create({spec}).ok());
}

TEST(TransactionSetTest, RejectsDeadlinePastPeriod) {
  TransactionSpec spec = Periodic("T", 10, 0, {Compute(1)});
  spec.relative_deadline = 12;
  EXPECT_FALSE(TransactionSet::Create({spec}).ok());
}

TEST(TransactionSetTest, RejectsDuplicateNames) {
  TransactionSpec a = Periodic("T", 10, 0, {Compute(1)});
  TransactionSpec b = Periodic("T", 20, 0, {Compute(1)});
  EXPECT_FALSE(TransactionSet::Create({a, b}).ok());
}

TEST(TransactionSetTest, RejectsNegativeOffset) {
  TransactionSpec spec = Periodic("T", 10, -1, {Compute(1)});
  EXPECT_FALSE(TransactionSet::Create({spec}).ok());
}

// --- TransactionSet ordering & accessors ------------------------------------

TEST(TransactionSetTest, RateMonotonicOrdersByPeriod) {
  TransactionSpec slow = Periodic("slow", 100, 0, {Compute(1)});
  TransactionSpec fast = Periodic("fast", 10, 0, {Compute(1)});
  TransactionSpec mid = Periodic("mid", 50, 0, {Compute(1)});
  auto set = TransactionSet::Create({slow, fast, mid});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->spec(0).name, "fast");
  EXPECT_EQ(set->spec(1).name, "mid");
  EXPECT_EQ(set->spec(2).name, "slow");
  EXPECT_GT(set->priority(0), set->priority(1));
  EXPECT_GT(set->priority(1), set->priority(2));
}

TEST(TransactionSetTest, OneShotsRankBelowPeriodic) {
  TransactionSpec periodic = Periodic("p", 100, 0, {Compute(1)});
  TransactionSpec shot = OneShot("s", 0, {Compute(1)});
  auto set = TransactionSet::Create({shot, periodic});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->spec(0).name, "p");
  EXPECT_EQ(set->spec(1).name, "s");
}

TEST(TransactionSetTest, AsListedKeepsOrder) {
  TransactionSpec slow = Periodic("slow", 100, 0, {Compute(1)});
  TransactionSpec fast = Periodic("fast", 10, 0, {Compute(1)});
  auto set = TransactionSet::Create({slow, fast},
                                    PriorityAssignment::kAsListed);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->spec(0).name, "slow");
  EXPECT_GT(set->priority(0), set->priority(1));
}

TEST(TransactionSetTest, AutoNamesAfterOrdering) {
  TransactionSpec a = Periodic("", 100, 0, {Compute(1)});
  TransactionSpec b = Periodic("", 10, 0, {Compute(1)});
  auto set = TransactionSet::Create({a, b});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->spec(0).name, "T1");  // the period-10 one
  EXPECT_EQ(set->spec(0).period, 10);
  EXPECT_EQ(set->spec(1).name, "T2");
}

TEST(TransactionSetTest, ItemCount) {
  TransactionSpec spec = OneShot("T", 0, {Read(7), Write(2)});
  auto set = TransactionSet::Create({spec});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->item_count(), 8);
}

TEST(TransactionSetTest, ItemCountZeroWithoutDataSteps) {
  TransactionSpec spec = OneShot("T", 0, {Compute(1)});
  auto set = TransactionSet::Create({spec});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->item_count(), 0);
}

TEST(TransactionSetTest, RelativeDeadlineDefaults) {
  TransactionSpec periodic = Periodic("p", 10, 0, {Compute(1)});
  TransactionSpec shot = OneShot("s", 0, {Compute(1)});
  TransactionSpec tight = Periodic("t", 10, 0, {Compute(1)});
  tight.relative_deadline = 4;
  auto set = TransactionSet::Create({periodic, shot, tight},
                                    PriorityAssignment::kAsListed);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->RelativeDeadline(0), 10);
  EXPECT_EQ(set->RelativeDeadline(1), kNoTick);
  EXPECT_EQ(set->RelativeDeadline(2), 4);
}

TEST(TransactionSetTest, Utilization) {
  TransactionSpec a = Periodic("a", 10, 0, {Compute(2)});
  TransactionSpec b = Periodic("b", 20, 0, {Compute(5)});
  TransactionSpec c = OneShot("c", 0, {Compute(3)});  // not counted
  auto set = TransactionSet::Create({a, b, c});
  ASSERT_TRUE(set.ok());
  EXPECT_DOUBLE_EQ(set->Utilization(), 0.2 + 0.25);
}

TEST(TransactionSetTest, Hyperperiod) {
  TransactionSpec a = Periodic("a", 6, 0, {Compute(1)});
  TransactionSpec b = Periodic("b", 10, 0, {Compute(1)});
  auto set = TransactionSet::Create({a, b});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->Hyperperiod(), 30);
}

TEST(TransactionSetTest, HyperperiodNoPeriodic) {
  TransactionSpec a = OneShot("a", 0, {Compute(1)});
  auto set = TransactionSet::Create({a});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->Hyperperiod(), 0);
}

// --- ArrivalCalendar --------------------------------------------------------

TEST(CalendarTest, PeriodicArrivals) {
  TransactionSpec a = Periodic("a", 5, 1, {Compute(1)});
  auto set = TransactionSet::Create({a});
  ASSERT_TRUE(set.ok());
  ArrivalCalendar cal(&*set);
  const auto arrivals = cal.Before(12);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], (Arrival{1, 0, 0}));
  EXPECT_EQ(arrivals[1], (Arrival{6, 0, 1}));
  EXPECT_EQ(arrivals[2], (Arrival{11, 0, 2}));
}

TEST(CalendarTest, OneShotArrivesOnce) {
  TransactionSpec a = OneShot("a", 3, {Compute(1)});
  auto set = TransactionSet::Create({a});
  ASSERT_TRUE(set.ok());
  ArrivalCalendar cal(&*set);
  EXPECT_EQ(cal.Before(100).size(), 1u);
  EXPECT_EQ(cal.At(3).size(), 1u);
  EXPECT_TRUE(cal.At(6).empty());
}

TEST(CalendarTest, SortedByTickThenPriority) {
  TransactionSpec hi = Periodic("hi", 4, 0, {Compute(1)});
  TransactionSpec lo = Periodic("lo", 8, 0, {Compute(1)});
  auto set = TransactionSet::Create({lo, hi});
  ASSERT_TRUE(set.ok());
  ArrivalCalendar cal(&*set);
  const auto arrivals = cal.Before(8);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].spec, 0);  // hi at 0
  EXPECT_EQ(arrivals[1].spec, 1);  // lo at 0
  EXPECT_EQ(arrivals[2].tick, 4);
}

TEST(CalendarTest, CountBefore) {
  TransactionSpec a = Periodic("a", 5, 1, {Compute(1)});
  auto set = TransactionSet::Create({a});
  ASSERT_TRUE(set.ok());
  ArrivalCalendar cal(&*set);
  EXPECT_EQ(cal.CountBefore(0, 1), 0);
  EXPECT_EQ(cal.CountBefore(0, 2), 1);
  EXPECT_EQ(cal.CountBefore(0, 6), 1);
  EXPECT_EQ(cal.CountBefore(0, 7), 2);
  EXPECT_EQ(cal.CountBefore(0, 100), 20);
}

TEST(CalendarTest, AtMatchesBefore) {
  TransactionSpec a = Periodic("a", 3, 2, {Compute(1)});
  TransactionSpec b = Periodic("b", 7, 0, {Compute(1)});
  auto set = TransactionSet::Create({a, b});
  ASSERT_TRUE(set.ok());
  ArrivalCalendar cal(&*set);
  std::size_t total = 0;
  for (Tick t = 0; t < 21; ++t) total += cal.At(t).size();
  EXPECT_EQ(total, cal.Before(21).size());
}

}  // namespace
}  // namespace pcpda
