// pcpda_perf: the repository benchmark driver (see perfbench/README.md).
//
// Runs one named workload against the pcpda library from a single thread,
// closed loop: each simulation or fuzz cell starts when the previous one
// returns. Untraced runs time whole calls for the end-to-end metrics;
// traced runs (--trace 1) put spans around the calls into each layer's
// public functions, including Protocol::Decide through TimingProtocol, and
// report the per-layer metrics. Nothing under src/ is instrumented.
//
//   pcpda_perf --workload sweep|overload|cells --seed N --seconds S
//              --trace 0|1 [--small] [--digests FILE]
//   pcpda_perf --workload W --seed N --record [--small]   digest line
//   pcpda_perf --workload W --seed N --selftest [--small] wrapper check
//
// The last line of a benchmark run is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/blocking.h"
#include "analysis/response_time.h"
#include "common/parse.h"
#include "common/rng.h"
#include "core/pcp_da.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracles.h"
#include "history/replay_checker.h"
#include "history/serialization_graph.h"
#include "host_probe.h"
#include "lint/lint.h"
#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "runner/batch_runner.h"
#include "sched/simulator.h"
#include "sim/arrival_schedule.h"
#include "timing_protocol.h"
#include "workload/generator.h"

namespace pcpda::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workload shapes --------------------------------------------------------

/// Size of one workload. A simulation workload cycles through its units
/// (`inputs` sets x protocols); the cells workload cycles through `cells`
/// fuzz iterations. Untraced runs measure whole passes over that pool;
/// traced runs make exactly one pass (cells: the first `traced_cells`), so
/// every count they report repeats exactly.
struct Sizes {
  int inputs = 0;
  /// Horizon of each simulation, in expected periodic releases: the
  /// horizon is releases / (releases per tick of the set), so every
  /// simulation does about the same work whatever periods were drawn.
  double releases = 0;
  int cells = 0;
  int traced_cells = 0;
  /// Set-ups per untraced run; setup_s is their median.
  int setup_repeats = 0;
};

struct Shape {
  const char* name;
  Sizes full;
  Sizes small;
};

// sweep: the schedulability-sweep shape of BENCH_engine.json (8 txns,
// 24 items, U=0.45, write fraction 0.3) on long horizons with recording
// off, under PCP-DA and RW-PCP. The active set stays small, so the
// per-tick engine and the job archive do the work.
// overload: write-heavy sets driven past saturation -- Poisson releases
// at 1.3x the periodic rate under PCP-DA, and the periodic calendar under
// 2PL-HP, whose restarts thrash. The active set reaches the hundreds and
// the dispatch fixpoint plus Decide dominate.
// cells: the fuzz-cell pipeline (generate, lint, compile, plan, run all 8
// protocols twice with audit, trace and history on, evaluate the oracles)
// on short horizons, half of them with fault plans.
constexpr Shape kShapes[] = {
    {"sweep", {128, 1500, 0, 0, 11}, {2, 400, 0, 0, 2}},
    {"overload", {6, 1600, 0, 0, 11}, {2, 200, 0, 0, 2}},
    {"cells", {0, 0, 64, 48, 11}, {0, 0, 6, 3, 2}},
};

constexpr double kSweepUtilization = 0.45;
constexpr double kOverloadUtilization = 0.85;
constexpr double kOverloadWriteFraction = 0.6;
constexpr double kOverloadPoissonLoad = 1.3;
/// Overload and cells draw their inputs from these fixed catalog seeds;
/// --seed only rotates the order of their pools. Their cost is
/// heavy-tailed in the inputs (one fuzz cell in a thousand runs for
/// seconds, most for milliseconds; overloaded sets differ 50x), so pools
/// drawn from --seed made the ten-seed spread of ticks_per_s 0.5 to 1.0;
/// see perfbench/README.md.
constexpr std::uint64_t kOverloadCatalogSeed = 0x0e7104d;
constexpr std::uint64_t kCellsCatalogSeed = 0xce115;
/// Horizon cap of the untimed warm-up simulation in set-up.
constexpr Tick kWarmupTicks = 5000;

// --- Layer spans (traced runs only) -----------------------------------------

/// Per-layer accumulators of a traced run; null in untraced runs.
struct LayerStats {
  double gen_s = 0, lint_s = 0, compile_s = 0;
  std::int64_t lint_calls = 0, compiles = 0;
  /// Simulations run through TimingProtocol.
  double ctor_s = 0, run_s = 0, ticks = 0;
  std::int64_t released = 0, lock_decisions = 0;
  double rss_delta_bytes = 0;
  double record_s = 0, audit_s = 0;
  double runner_run_s = 0, runner_overhead_s = 0;
  double eval_s = 0, history_s = 0, analysis_s = 0;
  DecideStats decide;
};

LayerStats* g_layers = nullptr;

/// Adds the lifetime of the span to `*total` when tracing, else nothing.
class Span {
 public:
  explicit Span(double LayerStats::*field)
      : total_(g_layers ? &(g_layers->*field) : nullptr),
        start_(total_ ? Clock::now() : Clock::time_point()) {}
  ~Span() {
    if (total_ != nullptr) *total_ += Since(start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* total_;
  Clock::time_point start_;
};

double ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  long long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// --- Output digests ---------------------------------------------------------

std::uint32_t Fnv1a(const std::string& text, std::uint32_t hash = 2166136261u) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 16777619u;
  }
  return hash;
}

std::string Hex(std::uint32_t value) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  return buf;
}

/// Recorded digests, one line per (workload, seed): the digest of every
/// unit of the pool, 8 hex digits each, in pool order.
std::map<std::pair<std::string, std::uint64_t>, std::string> LoadDigests(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, std::string> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, hex;
    std::uint64_t seed = 0;
    if (fields >> workload >> seed >> hex) digests[{workload, seed}] = hex;
  }
  return digests;
}

// --- Simulation workloads ---------------------------------------------------

struct SimInput {
  CompiledPlan plan;
  /// Release schedule override; empty runs the periodic calendar.
  std::optional<ArrivalSchedule> arrivals;
  /// Releases the arrivals imply inside the horizon, whatever the
  /// protocol: the fallback output check.
  std::int64_t expected_released = 0;
};

struct SimUnit {
  std::size_t input = 0;
  ProtocolKind protocol = ProtocolKind::kPcpDa;
};

struct Workload {
  std::string name;
  Sizes sizes;
  /// The seed the inputs were made from (overload, cells: a catalog seed).
  std::uint64_t input_seed = 0;
  /// Pool position of the first unit a run executes.
  std::size_t rotation = 0;
  std::vector<SimInput> inputs;
  std::vector<SimUnit> units;
  /// cells only.
  FuzzOptions fuzz;
};

double ReleasesPerTick(const TransactionSet& set) {
  double rate = 0;
  for (SpecId i = 0; i < set.size(); ++i) {
    if (set.spec(i).period > 0) {
      rate += 1.0 / static_cast<double>(set.spec(i).period);
    }
  }
  return rate;
}

std::int64_t PeriodicReleases(const TransactionSet& set, Tick horizon) {
  std::int64_t released = 0;
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    if (spec.offset >= horizon) continue;
    released += spec.period > 0 ? (horizon - 1 - spec.offset) / spec.period + 1
                                : 1;
  }
  return released;
}

SimulatorOptions SimOptions(const SimInput& input) {
  SimulatorOptions options;
  options.horizon = input.plan.horizon();
  options.record_trace = false;
  options.record_history = false;
  options.miss_policy = DeadlineMissPolicy::kContinue;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  if (input.arrivals.has_value()) {
    options.arrival_schedule = &*input.arrivals;
  }
  return options;
}

/// Generates, lints and compiles one set; `poisson_load` > 0 adds a
/// Poisson release schedule at that load.
StatusOr<SimInput> MakeSimInput(const WorkloadParams& params,
                                double releases, std::uint64_t seed,
                                double poisson_load) {
  Rng rng(seed);
  std::optional<TransactionSet> set;
  {
    Span span(&LayerStats::gen_s);
    auto generated = GenerateWorkload(params, rng);
    PCPDA_RETURN_IF_ERROR(generated.status());
    set = std::move(generated).value();
  }
  const Tick horizon = std::max<Tick>(
      1, static_cast<Tick>(releases / ReleasesPerTick(*set)));
  SimInput input;
  if (poisson_load > 0) {
    Span span(&LayerStats::gen_s);
    input.arrivals =
        ArrivalSchedule::Poisson(*set, horizon, poisson_load, rng);
    for (const Arrival& arrival : input.arrivals->arrivals()) {
      if (arrival.tick < horizon) ++input.expected_released;
    }
  } else {
    input.expected_released = PeriodicReleases(*set, horizon);
  }
  Scenario scenario{"perf", std::move(*set), horizon, {}, {}, {}, {}};
  {
    Span span(&LayerStats::lint_s);
    if (g_layers) ++g_layers->lint_calls;
    const LintReport lint = LintScenario(scenario, LintFilterOptions());
    if (!lint.clean()) {
      return Status::Internal("generated set fails lint: " +
                              lint.diagnostics.front().message);
    }
  }
  Span span(&LayerStats::compile_s);
  if (g_layers) ++g_layers->compiles;
  CompileOptions compile;
  compile.lint = false;
  auto plan = CompiledPlan::Compile(std::move(scenario), compile);
  PCPDA_RETURN_IF_ERROR(plan.status());
  input.plan = std::move(plan).value();
  return input;
}

struct SimRun {
  SimResult result;
  double ctor_s = 0;
  double run_s = 0;
};

/// Constructs and runs one simulation, timing both. In traced runs it
/// also adds the resident-memory growth of the live simulator.
SimRun TimedSim(const CompiledPlan& plan, Protocol* protocol,
                const SimulatorOptions& options) {
  SimRun run;
  double rss_before = 0;
  if (g_layers) {
    malloc_trim(0);
    rss_before = ResidentBytes();
  }
  const auto start = Clock::now();
  Simulator sim(plan, protocol, options);
  run.ctor_s = Since(start);
  const auto run_start = Clock::now();
  run.result = sim.Run();
  run.run_s = Since(run_start);
  if (g_layers) g_layers->rss_delta_bytes += ResidentBytes() - rss_before;
  return run;
}

/// One simulation of `input` under `kind`. With `stats` the protocol runs
/// behind TimingProtocol, tallying into it.
SimRun RunSim(const SimInput& input, ProtocolKind kind, DecideStats* stats,
              Tick horizon_cap = 0) {
  std::unique_ptr<Protocol> protocol = MakeProtocol(kind);
  if (stats != nullptr) {
    protocol = std::make_unique<TimingProtocol>(std::move(protocol), *stats);
  }
  SimulatorOptions options = SimOptions(input);
  if (horizon_cap > 0) options.horizon = std::min(options.horizon, horizon_cap);
  return TimedSim(input.plan, protocol.get(), options);
}

Tick SimulatedTicks(const RunMetrics& metrics) {
  Tick ticks = metrics.idle_ticks;
  for (const SpecMetrics& spec : metrics.per_spec) ticks += spec.busy_ticks;
  return ticks;
}

StatusOr<Workload> BuildWorkload(const std::string& name, const Sizes& sizes,
                                 std::uint64_t seed) {
  Workload workload;
  workload.name = name;
  workload.sizes = sizes;
  workload.input_seed = seed;
  if (name == "cells") {
    workload.input_seed = kCellsCatalogSeed;
    workload.rotation = seed % static_cast<std::uint64_t>(sizes.cells);
    workload.fuzz.seed = workload.input_seed;
    workload.fuzz.horizon_cap = 240;
    workload.fuzz.fault_probability = 0.5;
    workload.fuzz.oracles.protocols = AllProtocolKinds();
    workload.fuzz.oracles.check_determinism = true;
    return workload;
  }
  WorkloadParams params;
  params.num_transactions = 8;
  params.num_items = 24;
  params.write_fraction = 0.3;
  params.total_utilization = kSweepUtilization;
  const bool overload = name == "overload";
  if (overload) {
    params.total_utilization = kOverloadUtilization;
    params.write_fraction = kOverloadWriteFraction;
    workload.input_seed = kOverloadCatalogSeed;
  }
  for (int i = 0; i < sizes.inputs; ++i) {
    const std::uint64_t set_seed =
        SplitMixSeed(workload.input_seed, static_cast<std::uint64_t>(i));
    if (overload) {
      // The same set twice: Poisson overdrive under PCP-DA, and the
      // periodic calendar under 2PL-HP.
      auto poisson =
          MakeSimInput(params, sizes.releases, set_seed, kOverloadPoissonLoad);
      PCPDA_RETURN_IF_ERROR(poisson.status());
      workload.inputs.push_back(std::move(poisson).value());
      workload.units.push_back(
          {workload.inputs.size() - 1, ProtocolKind::kPcpDa});
      auto periodic = MakeSimInput(params, sizes.releases, set_seed, 0);
      PCPDA_RETURN_IF_ERROR(periodic.status());
      workload.inputs.push_back(std::move(periodic).value());
      workload.units.push_back(
          {workload.inputs.size() - 1, ProtocolKind::kTwoPlHp});
    } else {
      auto input = MakeSimInput(params, sizes.releases, set_seed, 0);
      PCPDA_RETURN_IF_ERROR(input.status());
      workload.inputs.push_back(std::move(input).value());
      for (ProtocolKind kind : {ProtocolKind::kPcpDa, ProtocolKind::kRwPcp}) {
        workload.units.push_back({workload.inputs.size() - 1, kind});
      }
    }
  }
  if (overload) workload.rotation = seed % workload.units.size();
  return workload;
}

// --- One unit of work -------------------------------------------------------

/// What one closed-loop unit (a simulation, or a fuzz cell) produced.
struct UnitResult {
  bool ok = false;
  std::uint32_t digest = 0;
  double ticks = 0;
  /// Host time of Simulator::Run (cells: of BatchRunner::Run).
  double run_s = 0;
  std::string error;
};

/// Adds one simulation that ran behind TimingProtocol to the layer
/// totals.
void AddWrappedRun(const SimRun& run) {
  const RunMetrics& metrics = run.result.metrics;
  g_layers->ctor_s += run.ctor_s;
  g_layers->run_s += run.run_s;
  g_layers->ticks += static_cast<double>(SimulatedTicks(metrics));
  g_layers->released += metrics.TotalReleased();
  g_layers->lock_decisions += metrics.lock_decisions;
}

UnitResult RunSimUnit(const Workload& workload, std::size_t index) {
  const SimUnit& unit = workload.units[index];
  const SimInput& input = workload.inputs[unit.input];
  const bool traced = g_layers != nullptr;
  const SimRun run =
      RunSim(input, unit.protocol, traced ? &g_layers->decide : nullptr);
  if (traced) AddWrappedRun(run);
  const RunMetrics& metrics = run.result.metrics;
  UnitResult out;
  out.run_s = run.run_s;
  out.ticks = static_cast<double>(SimulatedTicks(metrics));
  out.digest = Fnv1a(metrics.DebugString(input.plan.set()));
  out.ok = run.result.status.ok() &&
           metrics.TotalReleased() == input.expected_released;
  if (!run.result.status.ok()) {
    out.error = run.result.status.ToString();
  } else if (!out.ok) {
    out.error = "released " + std::to_string(metrics.TotalReleased()) +
                ", arrivals imply " + std::to_string(input.expected_released);
  }
  return out;
}

double TimeRunOne(const std::vector<RunSpec>& specs) {
  const auto start = Clock::now();
  for (const RunSpec& spec : specs) BatchRunner::RunOne(spec);
  return Since(start);
}

/// BatchRunner::RunOne with the protocol behind TimingProtocol.
SimRun RunSpecWrapped(const RunSpec& spec, DecideStats& stats) {
  SimulatorOptions options = spec.options;
  if (options.horizon <= 0) options.horizon = spec.scenario->horizon;
  if (!options.faults.enabled()) options.faults = spec.scenario->faults;
  if (spec.seed != 0) options.faults.seed = spec.seed;
  TimingProtocol protocol(spec.protocol == ProtocolKind::kPcpDa
                              ? std::make_unique<PcpDa>(spec.pcp_da)
                              : MakeProtocol(spec.protocol),
                          stats);
  return TimedSim(*spec.plan, &protocol, options);
}

/// The per-layer figures of one cell that the cell itself does not
/// produce: serial and ablated re-runs of its specs, the wrapped runs,
/// and the history and analysis layers called directly.
void TraceCell(const Scenario& scenario, const std::vector<RunSpec>& specs,
               const std::vector<SimResult>& results, double runner_s) {
  const double serial_s = TimeRunOne(specs);
  g_layers->runner_overhead_s += runner_s - serial_s;
  std::vector<RunSpec> ablated = specs;
  for (RunSpec& spec : ablated) {
    spec.options.record_trace = false;
    spec.options.record_history = false;
  }
  g_layers->record_s += serial_s - TimeRunOne(ablated);
  ablated = specs;
  for (RunSpec& spec : ablated) spec.options.audit = false;
  g_layers->audit_s += serial_s - TimeRunOne(ablated);

  for (const RunSpec& spec : specs) {
    AddWrappedRun(RunSpecWrapped(spec, g_layers->decide));
  }
  {
    Span span(&LayerStats::history_s);
    for (const SimResult& result : results) {
      if (result.status.ok() && IsSerializable(result.history)) {
        ReplaySerialWitness(result.history, scenario.set.item_count());
      }
    }
  }
  Span span(&LayerStats::analysis_s);
  for (ProtocolKind kind : AllProtocolKinds()) {
    AnalyzeResponseTimes(scenario.set, ComputeBlocking(scenario.set, kind));
  }
}

UnitResult RunCell(const Workload& workload, const ScenarioFuzzer& fuzzer,
                   BatchRunner& runner, int iteration) {
  UnitResult out;
  std::optional<Scenario> scenario;
  {
    Span span(&LayerStats::gen_s);
    auto made = fuzzer.MakeScenario(iteration);
    if (!made.ok()) {
      out.error = "generator: " + made.status().ToString();
      return out;
    }
    scenario = std::move(made).value();
  }
  {
    Span span(&LayerStats::lint_s);
    if (g_layers) ++g_layers->lint_calls;
    const LintReport lint = LintScenario(*scenario, LintFilterOptions());
    if (!lint.clean()) {
      out.error = "lint: " + lint.diagnostics.front().message;
      return out;
    }
  }
  std::optional<CompiledPlan> plan;
  {
    Span span(&LayerStats::compile_s);
    if (g_layers) ++g_layers->compiles;
    CompileOptions compile;
    compile.lint = false;
    auto compiled = CompiledPlan::Compile(*scenario, compile);
    if (!compiled.ok()) {
      out.error = "compile: " + compiled.status().ToString();
      return out;
    }
    plan = std::move(compiled).value();
  }
  const std::vector<RunSpec> specs =
      PlanOracleRuns(*plan, workload.fuzz.oracles);
  const auto start = Clock::now();
  const std::vector<SimResult> results = runner.Run(specs);
  out.run_s = Since(start);
  OracleVerdict verdict;
  {
    Span span(&LayerStats::eval_s);
    verdict = EvaluateOracleRuns(*scenario, workload.fuzz.oracles, results);
  }
  std::uint32_t digest = Fnv1a(verdict.DebugString());
  for (const SimResult& result : results) {
    digest = Fnv1a(result.metrics.DebugString(scenario->set), digest);
    out.ticks += static_cast<double>(SimulatedTicks(result.metrics));
  }
  out.digest = digest;
  out.ok = verdict.ok();
  if (!out.ok) out.error = verdict.DebugString();
  if (g_layers) {
    g_layers->runner_run_s += out.run_s;
    TraceCell(*scenario, specs, results, out.run_s);
  }
  return out;
}

/// Runs the units of a workload's pool by position.
class UnitLoop {
 public:
  explicit UnitLoop(const Workload& workload)
      : workload_(workload),
        fuzzer_(workload.fuzz),
        runner_(BatchOptions{1}) {}

  std::size_t pool() const {
    return workload_.name == "cells"
               ? static_cast<std::size_t>(workload_.sizes.cells)
               : workload_.units.size();
  }

  /// Pool position of the n-th unit a run executes.
  std::size_t Index(std::size_t n) const {
    return (n + workload_.rotation) % pool();
  }

  UnitResult Run(std::size_t index) {
    return workload_.name == "cells"
               ? RunCell(workload_, fuzzer_, runner_, static_cast<int>(index))
               : RunSimUnit(workload_, index);
  }

 private:
  const Workload& workload_;
  ScenarioFuzzer fuzzer_;
  BatchRunner runner_;
};

// --- Modes ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool record = false;
  bool selftest = false;
  std::string digests;
};

const Shape* FindShape(const std::string& name) {
  for (const Shape& shape : kShapes) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(values.size()))));
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Every (protocol, rule) pair a decision can carry; see RuleLabel.
const std::vector<std::string>& RuleKeys() {
  static const std::vector<std::string> keys = {
      "PCP-DA.LC1.grant",          "PCP-DA.LC2.grant",
      "PCP-DA.LC3.grant",          "PCP-DA.LC4.grant",
      "PCP-DA.LC1-denied.conflict", "PCP-DA.wr-guard.conflict",
      "PCP-DA.LC-denied.ceiling",  "RW-PCP.grant",
      "RW-PCP.block.ceiling",      "RW-PCP.block.conflict",
      "CCP.grant",                 "CCP.block.ceiling",
      "CCP.block.conflict",        "PCP.grant",
      "PCP.block.ceiling",         "PCP.block.conflict",
      "2PL-PI.grant",              "2PL-PI.block.conflict",
      "2PL-HP.grant",              "2PL-HP.abort_grant",
      "2PL-HP.block.conflict",     "OCC-BC.occ.grant",
      "OCC-DA.occ.grant",          "OCC-DA.abort_self",
  };
  return keys;
}

std::vector<Metric> LayerMetrics(const LayerStats& s, double pass_s,
                                 std::int64_t units) {
  const DecideStats& d = s.decide;
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"workload.gen_s", s.gen_s, "s"},
      {"lint.s", s.lint_s, "s"},
      {"lint.calls", count(s.lint_calls), "count"},
      {"plan.compile_s", s.compile_s, "s"},
      {"plan.compiles", count(s.compiles), "count"},
      {"sched.ctor_s", s.ctor_s, "s"},
      {"sched.run_self_s", s.run_s - d.seconds, "s"},
      {"sched.active_jobs_mean", per(count(d.active_sum),
                                     count(d.active_samples)), "jobs"},
      {"sched.active_jobs_max", count(d.active_max), "jobs"},
      {"sched.released_jobs", count(s.released), "count"},
      {"sched.rss_bytes_per_release",
       per(s.rss_delta_bytes, count(s.released)), "B"},
      {"sched.record_s", s.record_s, "s"},
      {"sched.audit_s", s.audit_s, "s"},
      {"protocols.decide_calls", count(d.calls), "count"},
      {"protocols.decide_s", d.seconds, "s"},
      {"protocols.decide_ns_per_call", per(d.seconds * 1e9, count(d.calls)),
       "ns"},
      {"protocols.decisions_per_release",
       per(count(d.calls), count(s.released)), "ratio"},
      {"protocols.grant_ratio", per(count(d.outcomes[0]), count(d.calls)),
       "ratio"},
      {"protocols.outcome.grant", count(d.outcomes[0]), "count"},
      {"protocols.outcome.block", count(d.outcomes[1]), "count"},
      {"protocols.outcome.abort_grant", count(d.outcomes[2]), "count"},
      {"protocols.outcome.abort_self", count(d.outcomes[3]), "count"},
  };
  std::int64_t other = 0;
  for (const auto& [key, n] : d.rules) {
    if (std::find(RuleKeys().begin(), RuleKeys().end(), key) ==
        RuleKeys().end()) {
      other += n;
    }
  }
  for (const std::string& key : RuleKeys()) {
    const auto it = d.rules.find(key);
    m.push_back({"protocols.rule." + key,
                 count(it == d.rules.end() ? 0 : it->second), "count"});
  }
  m.push_back({"protocols.rule.other", count(other), "count"});
  m.push_back({"runner.run_s", s.runner_run_s, "s"});
  m.push_back({"runner.overhead_s", s.runner_overhead_s, "s"});
  m.push_back({"fuzz.eval_s", s.eval_s, "s"});
  m.push_back({"history.check_s", s.history_s, "s"});
  m.push_back({"analysis.s", s.analysis_s, "s"});
  m.push_back({"traced.ticks_per_s", per(s.ticks, s.run_s), "ticks/s"});
  m.push_back({"traced.units", count(units), "count"});
  m.push_back({"traced.pass_s", pass_s, "s"});
  return m;
}

/// Output check for unit `index` of the pool: the recorded digest when
/// there is one, else the unit's own status/arrival checks.
bool CheckDigest(const std::string* recorded, std::size_t index,
                 UnitResult& result) {
  if (recorded == nullptr || !result.ok) return result.ok;
  if (recorded->compare(index * 8, 8, Hex(result.digest)) != 0) {
    result.ok = false;
    result.error = "digest " + Hex(result.digest) + " != recorded " +
                   recorded->substr(index * 8, 8);
  }
  return result.ok;
}

/// The digests.txt key of a run's pool: reduced sizes have pools of
/// their own.
std::string DigestLabel(const Args& args) {
  return args.small ? args.workload + "-small" : args.workload;
}

/// One pass over the pool of an untraced run. Times are as measured;
/// divide them by `slowdown` for the host-corrected figures.
struct Pass {
  std::vector<double> latency_ms;
  double ticks = 0;
  /// Summed host time of Simulator::Run (cells: BatchRunner::Run).
  double run_s = 0;
  /// The pass without the probe's share.
  double seconds = 0;
  /// HostProbe's slowdown over the pass; 1 in traced runs.
  double slowdown = 1;
};

template <typename F>
double PassMedian(const std::vector<Pass>& passes, F per_pass) {
  std::vector<double> values;
  for (const Pass& pass : passes) values.push_back(per_pass(pass));
  return Median(values);
}

/// Each unit's host-corrected latency as its median over the passes.
/// Every pass runs the same units in the same order, so the median removes
/// host stalls before the percentiles are taken over the pool.
std::vector<double> UnitLatencies(const std::vector<Pass>& passes) {
  std::vector<double> units;
  for (std::size_t n = 0; n < passes.front().latency_ms.size(); ++n) {
    std::vector<double> samples;
    for (const Pass& pass : passes) {
      samples.push_back(pass.latency_ms[n] / pass.slowdown);
    }
    units.push_back(Median(samples));
  }
  return units;
}

/// Set-up: build the inputs and run one untimed, horizon-capped
/// warm-up unit. Returns the seconds it took.
StatusOr<double> SetUp(const Args& args, const Sizes& sizes,
                       std::optional<Workload>& workload) {
  const auto start = Clock::now();
  auto built = BuildWorkload(args.workload, sizes, args.seed);
  PCPDA_RETURN_IF_ERROR(built.status());
  workload = std::move(built).value();
  if (!args.trace) {
    if (workload->name == "cells") {
      UnitLoop(*workload).Run(0);
    } else {
      const SimUnit& unit = workload->units.front();
      RunSim(workload->inputs[unit.input], unit.protocol, nullptr,
             kWarmupTicks);
    }
  }
  return Since(start);
}

int Bench(const Args& args, const Sizes& sizes) {
  LayerStats layers;
  if (args.trace) g_layers = &layers;
  // Untraced runs probe the host after every set-up and unit and report
  // times corrected by its slowdown (perfbench/README.md, "Host
  // correction"). Traced runs report times as measured.
  HostProbe probe;
  std::vector<double> setup_s;
  std::optional<Workload> workload;
  for (int r = 0; r < (args.trace ? 1 : sizes.setup_repeats); ++r) {
    auto seconds = SetUp(args, sizes, workload);
    if (!seconds.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   seconds.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(*seconds);
    if (!args.trace) probe.SampleAfter(*seconds);
  }
  const double setup_slowdown = probe.TakeSlowdown();

  UnitLoop loop(*workload);
  const std::string* recorded = nullptr;
  std::map<std::pair<std::string, std::uint64_t>, std::string> digests;
  if (!args.digests.empty()) {
    digests = LoadDigests(args.digests);
    const auto it = digests.find({DigestLabel(args), workload->input_seed});
    if (it != digests.end()) {
      if (it->second.size() != 8 * loop.pool()) {
        std::fprintf(stderr,
                     "recorded digests for %s seed %llu cover %zu units, "
                     "the pool has %zu: re-record them\n",
                     args.workload.c_str(),
                     static_cast<unsigned long long>(workload->input_seed),
                     it->second.size() / 8, loop.pool());
        return 1;
      }
      recorded = &it->second;
    }
  }

  // Untraced: whole passes over the pool until --seconds have passed, so
  // every pass weighs each unit of the pool equally. Throughput is the
  // median over passes, robust to a slow stretch of the host. Traced: one
  // pass.
  const std::size_t pass_units =
      args.trace && args.workload == "cells"
          ? static_cast<std::size_t>(sizes.traced_cells)
          : loop.pool();
  std::int64_t attempted = 0, failed = 0;
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    Pass& current = passes.emplace_back();
    const auto pass_start = Clock::now();
    for (std::size_t n = 0; n < pass_units; ++n) {
      const std::size_t index = loop.Index(n);
      const auto unit_start = Clock::now();
      UnitResult result = loop.Run(index);
      const double unit_s = Since(unit_start);
      current.latency_ms.push_back(unit_s * 1e3);
      if (!args.trace) probe.SampleAfter(unit_s);
      ++attempted;
      if (!CheckDigest(recorded, index, result)) {
        ++failed;
        std::fprintf(stderr, "unit %zu failed: %s\n", index,
                     result.error.c_str());
      }
      current.ticks += result.ticks;
      current.run_s += result.run_s;
    }
    current.seconds = Since(pass_start) - probe.probe_s();
    current.slowdown = probe.TakeSlowdown();
  } while (!args.trace && Since(start) < args.seconds);
  const double elapsed = Since(start);
  if (args.trace && layers.decide.calls != layers.lock_decisions) {
    std::fprintf(stderr, "wrapper counted %lld decisions, RunMetrics %lld\n",
                 static_cast<long long>(layers.decide.calls),
                 static_cast<long long>(layers.lock_decisions));
    ++failed;
  }
  g_layers = nullptr;

  std::printf("%s seed=%llu: %lld units in %.2f s, failed_frac=%g, "
              "digests %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<long long>(attempted), elapsed,
              static_cast<double>(failed) / static_cast<double>(attempted),
              recorded ? "checked" : "not recorded, fallback checks only");
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = LayerMetrics(layers, elapsed, attempted);
  } else {
    const std::vector<double> unit_ms = UnitLatencies(passes);
    std::printf("host slowdown: set-up %.3f, passes %.3f (median of %zu); "
                "uncorrected ticks_per_s %.6g\n",
                setup_slowdown,
                PassMedian(passes, [](const Pass& p) { return p.slowdown; }),
                passes.size(),
                PassMedian(passes,
                           [](const Pass& p) { return p.ticks / p.run_s; }));
    metrics = {
        {"setup_s", Median(setup_s) / setup_slowdown, "s"},
        {"ticks_per_s", PassMedian(passes, [](const Pass& p) {
           return p.ticks * p.slowdown / p.run_s;
         }), "ticks/s"},
        {"cells_per_s", PassMedian(passes, [](const Pass& p) {
           return static_cast<double>(p.latency_ms.size()) * p.slowdown /
                  p.seconds;
         }), "cells/s"},
        {"cell_ms_p50", Median(unit_ms), "ms"},
        {"cell_ms_p95", Percentile(unit_ms, 0.95), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

/// One untimed pass over the pool; prints "<workload> <seed> <digests>",
/// the line perfbench/digests.txt holds.
int Record(const Args& args, const Sizes& sizes) {
  auto workload = BuildWorkload(args.workload, sizes, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  UnitLoop loop(*workload);
  std::string hex;
  for (std::size_t index = 0; index < loop.pool(); ++index) {
    const UnitResult result = loop.Run(index);
    if (!result.ok) {
      std::fprintf(stderr, "unit %zu failed: %s\n", index,
                   result.error.c_str());
      return 1;
    }
    hex += Hex(result.digest);
  }
  std::printf("%s %llu %s\n", DigestLabel(args).c_str(),
              static_cast<unsigned long long>(workload->input_seed),
              hex.c_str());
  return 0;
}

/// What a wrapped and an unwrapped run must agree on byte for byte.
std::string Observable(const SimResult& result, const TransactionSet& set) {
  return result.status.ToString() + "\n" + result.metrics.DebugString(set) +
         "\nlock_decisions=" + std::to_string(result.metrics.lock_decisions) +
         "\n" + result.trace.DebugString() + "\n" +
         result.history.DebugString();
}

/// TimingProtocol must be invisible: for every protocol on every input of
/// the workload, the wrapped run (with measuring on) and the plain run
/// give identical metrics, decision counts, traces and histories.
int Selftest(const Args& args, const Sizes& sizes) {
  auto workload = BuildWorkload(args.workload, sizes, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  DecideStats stats;
  int compared = 0, differing = 0;
  const auto compare = [&](const SimResult& plain, const SimResult& wrapped,
                           const TransactionSet& set, const std::string& what) {
    ++compared;
    if (Observable(plain, set) != Observable(wrapped, set)) {
      ++differing;
      std::fprintf(stderr, "wrapped run differs: %s\n", what.c_str());
    }
  };
  if (args.workload == "cells") {
    ScenarioFuzzer fuzzer(workload->fuzz);
    for (int i = 0; i < sizes.traced_cells; ++i) {
      auto scenario = fuzzer.MakeScenario(i);
      if (!scenario.ok()) return 1;
      CompileOptions compile;
      compile.lint = false;
      auto plan = CompiledPlan::Compile(*scenario, compile);
      if (!plan.ok()) return 1;
      const std::vector<RunSpec> specs =
          PlanOracleRuns(*plan, workload->fuzz.oracles);
      for (const RunSpec& spec : specs) {
        compare(BatchRunner::RunOne(spec),
                RunSpecWrapped(spec, stats).result, scenario->set,
                "cell " + std::to_string(i) + " " + ToString(spec.protocol));
      }
    }
  } else {
    for (std::size_t i = 0; i < workload->inputs.size(); ++i) {
      const SimInput& input = workload->inputs[i];
      for (ProtocolKind kind : AllProtocolKinds()) {
        compare(RunSim(input, kind, nullptr).result,
                RunSim(input, kind, &stats).result, input.plan.set(),
                "input " + std::to_string(i) + " " + ToString(kind));
      }
    }
  }
  std::printf("selftest %s: %d of %d wrapped runs identical, %lld decisions "
              "timed\n",
              args.workload.c_str(), compared - differing, compared,
              static_cast<long long>(stats.calls));
  return differing == 0 && compared > 0 && stats.calls > 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pcpda_perf --workload sweep|overload|cells --seed N "
               "--seconds S --trace 0|1 [--small] [--digests FILE]\n"
               "       pcpda_perf --workload W --seed N --record|--selftest "
               "[--small]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--small") {
      args.small = true;
    } else if (flag == "--record") {
      args.record = true;
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else if (!has_value) {
      return Usage();
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--digests") {
      args.digests = argv[++i];
    } else if (flag == "--seed") {
      if (!ParseFlagUInt64("--seed", argv[++i],
                           std::numeric_limits<std::uint64_t>::max(),
                           &args.seed)) {
        return Usage();
      }
    } else if (flag == "--seconds") {
      if (!ParseFlagDouble("--seconds", argv[++i], 0.001, 3600,
                           &args.seconds)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      int trace = 0;
      if (!ParseFlagInt("--trace", argv[++i], 0, 1, &trace)) return Usage();
      args.trace = trace == 1;
    } else {
      return Usage();
    }
  }
  const Shape* shape = FindShape(args.workload);
  if (shape == nullptr) return Usage();
  const Sizes& sizes = args.small ? shape->small : shape->full;
  if (args.selftest) return Selftest(args, sizes);
  if (args.record) return Record(args, sizes);
  return Bench(args, sizes);
}

}  // namespace
}  // namespace pcpda::perfbench

int main(int argc, char** argv) { return pcpda::perfbench::Main(argc, argv); }
