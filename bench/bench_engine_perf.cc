// Engine performance benchmarks (not a paper artifact): simulator
// throughput in ticks/second across protocols and workload sizes, lock
// table and analysis micro-benchmarks. Useful for keeping the simulator
// fast enough for large sweeps.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/blocking.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "db/lock_table.h"
#include "history/serialization_graph.h"
#include "plan/compiled_plan.h"
#include "sim/arrival_schedule.h"
#include "workload/generator.h"

namespace pcpda {
namespace {

/// PCPDA_BENCH_SMOKE=1 shrinks every horizon so the whole binary finishes
/// in seconds; the bench-smoke CTest target uses it to run these paths
/// (including under asan) as part of tier-1.
bool SmokeMode() { return std::getenv("PCPDA_BENCH_SMOKE") != nullptr; }

Tick Horizon(Tick full) { return SmokeMode() ? std::min<Tick>(full, 300) : full; }

/// The overload row's horizon. The backlog, and with it the per-tick
/// cost, grows with the horizon; the smoke horizon is longer than the
/// others' 300 because the fixpoint only starts re-sweeping once a
/// backlog has built up.
Tick OverloadHorizon() { return SmokeMode() ? 3000 : 50000; }

/// The generated bench workload, compiled once; every run shares it.
CompiledPlan SizedPlan(int txns, int items, double utilization) {
  Rng rng(99);
  WorkloadParams params;
  params.num_transactions = txns;
  params.num_items = items;
  params.total_utilization = utilization;
  return CompiledPlan::CompileUnlinted(
      {"bench_engine", GenerateWorkload(params, rng).value(), 0, {}, {}, {},
       {}});
}

/// The overload row's input: a write-heavy set (8 txns, 24 items,
/// U=0.85, write fraction 0.6) released by a Poisson schedule at 1.3x its
/// periodic rate, so the backlog grows for the whole horizon. Generator
/// seed 18 yields a set whose inheritance chains keep re-sorting the
/// dispatch order (about 9 fixpoint sweeps per resolution over 20k
/// ticks); the seed-99 set of the sweep rows, driven the same way, makes
/// about one and would not exercise the fixpoint.
struct OverloadInput {
  CompiledPlan plan;
  ArrivalSchedule arrivals;
};

OverloadInput MakeOverloadInput(Tick horizon) {
  Rng rng(18);
  WorkloadParams params;
  params.num_transactions = 8;
  params.num_items = 24;
  params.total_utilization = 0.85;
  params.write_fraction = 0.6;
  CompiledPlan plan = CompiledPlan::CompileUnlinted(
      {"bench_engine_overload", GenerateWorkload(params, rng).value(), 0, {},
       {}, {}, {}});
  ArrivalSchedule arrivals =
      ArrivalSchedule::Poisson(plan.set(), horizon, /*load=*/1.3, rng);
  return {std::move(plan), std::move(arrivals)};
}

/// The sweep shape: trace and history off, deadlocks resolved by aborts.
SimulatorOptions SweepOptions(Tick horizon) {
  SimulatorOptions options;
  options.horizon = horizon;
  options.record_trace = false;
  options.record_history = false;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  return options;
}

SimResult RunPlan(const CompiledPlan& plan, ProtocolKind kind,
                  const SimulatorOptions& options) {
  auto protocol = MakeProtocol(kind);
  Simulator sim(plan, protocol.get(), options);
  return sim.Run();
}

void BM_SimulatorThroughput(benchmark::State& state) {
  const CompiledPlan plan = SizedPlan(
      static_cast<int>(state.range(1)), 3 * static_cast<int>(state.range(1)),
      0.7);
  const auto kind = static_cast<ProtocolKind>(state.range(0));
  const Tick horizon = Horizon(5000);
  for (auto _ : state) {
    SimResult result = RunPlan(plan, kind, SweepOptions(horizon));
    benchmark::DoNotOptimize(result.metrics.TotalCommitted());
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_SimulatorThroughput)
    ->Args({static_cast<int>(ProtocolKind::kPcpDa), 8})
    ->Args({static_cast<int>(ProtocolKind::kPcpDa), 24})
    ->Args({static_cast<int>(ProtocolKind::kRwPcp), 8})
    ->Args({static_cast<int>(ProtocolKind::kRwPcp), 24})
    ->Args({static_cast<int>(ProtocolKind::kTwoPlHp), 8});

// The schedulability-sweep shape: one long-horizon run per (protocol,
// utilization) grid point. Horizons this long are where the per-tick
// full-scan engine drowned — every tick rescanned every job released since
// tick 0 — and where the event-driven core's active-set scan and idle-gap
// skip pay off. Tracked before/after in EXPERIMENTS.md.
void BM_LongHorizonSweep(benchmark::State& state) {
  const CompiledPlan plan =
      SizedPlan(8, 24, static_cast<double>(state.range(1)) / 100.0);
  const auto kind = static_cast<ProtocolKind>(state.range(0));
  const Tick horizon = Horizon(150000);
  for (auto _ : state) {
    SimResult result = RunPlan(plan, kind, SweepOptions(horizon));
    benchmark::DoNotOptimize(result.metrics.TotalCommitted());
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_LongHorizonSweep)
    ->Args({static_cast<int>(ProtocolKind::kPcpDa), 45})
    ->Args({static_cast<int>(ProtocolKind::kPcpDa), 70})
    ->Args({static_cast<int>(ProtocolKind::kRwPcp), 45})
    ->Args({static_cast<int>(ProtocolKind::kTwoPlHp), 45})
    ->Unit(benchmark::kMillisecond);

// Long horizon with tracing on: exercises the bounded trace ring
// (SimulatorOptions::max_trace_events) that keeps week-long horizons from
// holding every event ever traced in memory.
void BM_LongHorizonBoundedTrace(benchmark::State& state) {
  const CompiledPlan plan = SizedPlan(8, 24, 0.45);
  const Tick horizon = Horizon(50000);
  for (auto _ : state) {
    SimulatorOptions options;
    options.horizon = horizon;
    options.record_history = false;
    options.max_trace_events = static_cast<std::size_t>(state.range(0));
    SimResult result = RunPlan(plan, ProtocolKind::kPcpDa, options);
    benchmark::DoNotOptimize(result.trace.events().size());
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_LongHorizonBoundedTrace)->Arg(0)->Arg(4096)->Unit(
    benchmark::kMillisecond);

void BM_TraceRecordingOverhead(benchmark::State& state) {
  const CompiledPlan plan = SizedPlan(8, 24, 0.7);
  const bool record = state.range(0) != 0;
  for (auto _ : state) {
    SimulatorOptions options;
    options.horizon = 2000;
    options.record_trace = record;
    options.record_history = record;
    SimResult result = RunPlan(plan, ProtocolKind::kPcpDa, options);
    benchmark::DoNotOptimize(result.metrics.TotalCommitted());
  }
}
BENCHMARK(BM_TraceRecordingOverhead)->Arg(0)->Arg(1);

void BM_LockTableOps(benchmark::State& state) {
  LockTable locks(64);
  std::int64_t i = 0;
  for (auto _ : state) {
    const JobId job = i % 16;
    const ItemId item = static_cast<ItemId>(i % 64);
    locks.AcquireRead(job, item);
    benchmark::DoNotOptimize(locks.readers(item).size());
    locks.ReleaseAll(job);
    ++i;
  }
}
BENCHMARK(BM_LockTableOps);

void BM_SerializabilityCheck(benchmark::State& state) {
  SimulatorOptions options;
  options.horizon = 2000;
  const SimResult result =
      RunPlan(SizedPlan(8, 24, 0.7), ProtocolKind::kPcpDa, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSerializable(result.history));
  }
}
BENCHMARK(BM_SerializabilityCheck);

// --- BENCH_engine.json: throughput plus a deterministic work counter ----
//
// The google-benchmark suite above tracks absolute engine throughput; this
// harness emits a machine-readable report per (protocol, shape, horizon)
// point. Two shapes: "sweep" runs the periodic calendar of one shared
// CompiledPlan; "overload" runs a write-heavy set released by a Poisson
// schedule at 1.3x its periodic rate, so the backlog and the active set
// grow for the whole horizon and the dispatch fixpoint does the work.
// Wall-clock figures are best-of-3 trials around construction + Run();
// lock_decisions_per_run and dispatch_visits_per_run are the exact
// RunMetrics::lock_decisions and ::dispatch_visits of one run, which
// depend only on the inputs. The rows land in BENCH_engine.json
// ($PCPDA_BENCH_JSON overrides the path) with schema
//   {"smoke": bool, "rows": [{"protocol", "shape", "horizon",
//     "ticks_per_sec", "ns_per_lock_decision", "lock_decisions_per_run",
//     "dispatch_visits_per_run"}]}
// and the bench-json ctest target fails when either count of any row is
// above the committed baseline (bench/bench_engine_baseline.json) for its
// (protocol, shape, horizon), or has no baseline.

struct EngineRow {
  double sec_per_run = 0.0;
  std::int64_t lock_decisions_per_run = 0;
  std::int64_t dispatch_visits_per_run = 0;
};

/// One timed simulation; construction is part of the measurement.
/// `arrivals` (may be null) overrides the periodic calendar.
double TimedRun(const CompiledPlan& plan, ProtocolKind kind, Tick horizon,
                const ArrivalSchedule* arrivals, EngineRow* counts) {
  SimulatorOptions options = SweepOptions(horizon);
  options.arrival_schedule = arrivals;
  const auto start = std::chrono::steady_clock::now();
  SimResult result = RunPlan(plan, kind, options);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(result.metrics.TotalCommitted());
  counts->lock_decisions_per_run = result.metrics.lock_decisions;
  counts->dispatch_visits_per_run = result.metrics.dispatch_visits;
  return std::chrono::duration<double>(stop - start).count();
}

EngineRow MeasureRow(const CompiledPlan& plan, ProtocolKind kind,
                     Tick horizon, const ArrivalSchedule* arrivals) {
  EngineRow row;
  // Calibrate: enough repetitions per trial to cover ~20ms, so short
  // horizons are not timer-noise-bound; slow protocols run once.
  const double probe = TimedRun(plan, kind, horizon, arrivals, &row);
  int reps = 1;
  if (probe < 0.02) {
    reps = std::min<int>(256, static_cast<int>(0.02 / std::max(probe, 1e-7)) + 1);
  }
  double best = probe;
  EngineRow counts;
  for (int trial = 0; trial < 3; ++trial) {
    double total = 0.0;
    for (int r = 0; r < reps; ++r) {
      total += TimedRun(plan, kind, horizon, arrivals, &counts);
    }
    best = std::min(best, total / reps);
  }
  row.sec_per_run = best;
  return row;
}

void WriteEngineBenchJson() {
  struct Point {
    ProtocolKind kind;
    bool overload;
    Tick horizon;
  };
  // Long-horizon sweep shape for the ceiling protocols; a campaign-shaped
  // short horizon where the per-run setup actually matters; 2PL-HP kept
  // short because restart thrashing makes it ~2000x slower per tick; and
  // PCP-DA past saturation, where the active set reaches the hundreds.
  const std::vector<Point> points = {
      {ProtocolKind::kPcpDa, false, Horizon(150000)},
      {ProtocolKind::kPcpDa, false, Horizon(3000)},
      {ProtocolKind::kRwPcp, false, Horizon(150000)},
      {ProtocolKind::kTwoPlHp, false, Horizon(1500)},
      {ProtocolKind::kPcpDa, true, OverloadHorizon()},
  };
  const CompiledPlan plan = SizedPlan(8, 24, 0.45);

  std::string json = "{\n";
  json += StrFormat("  \"smoke\": %s,\n  \"rows\": [\n",
                    SmokeMode() ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    EngineRow row;
    if (p.overload) {
      const OverloadInput input = MakeOverloadInput(p.horizon);
      row = MeasureRow(input.plan, p.kind, p.horizon, &input.arrivals);
    } else {
      row = MeasureRow(plan, p.kind, p.horizon, nullptr);
    }
    const double ticks_per_sec =
        static_cast<double>(p.horizon) / row.sec_per_run;
    const double ns_per_decision =
        row.lock_decisions_per_run > 0
            ? row.sec_per_run * 1e9 /
                  static_cast<double>(row.lock_decisions_per_run)
            : 0.0;
    json += StrFormat(
        "    {\"protocol\": \"%s\", \"shape\": \"%s\", \"horizon\": %lld, "
        "\"ticks_per_sec\": %.1f, \"ns_per_lock_decision\": %.2f, "
        "\"lock_decisions_per_run\": %lld, "
        "\"dispatch_visits_per_run\": %lld}%s\n",
        ToString(p.kind), p.overload ? "overload" : "sweep",
        static_cast<long long>(p.horizon), ticks_per_sec, ns_per_decision,
        static_cast<long long>(row.lock_decisions_per_run),
        static_cast<long long>(row.dispatch_visits_per_run),
        i + 1 < points.size() ? "," : "");
  }
  json += "  ]\n}\n";

  const char* path_env = std::getenv("PCPDA_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_engine.json";
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    std::fprintf(stderr, "BENCH_engine: cannot write %s\n", path.c_str());
    return;
  }
  out << json;
  std::printf("BENCH_engine.json -> %s\n%s", path.c_str(), json.c_str());
}

}  // namespace
}  // namespace pcpda

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pcpda::WriteEngineBenchJson();
  return 0;
}
