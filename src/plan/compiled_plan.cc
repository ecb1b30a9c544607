#include "plan/compiled_plan.h"

#include <utility>

#include "lint/lint.h"

namespace pcpda {
namespace {

void SetBit(std::vector<std::uint64_t>& bits, std::size_t words_per_spec,
            SpecId spec, ItemId item) {
  const std::size_t word = static_cast<std::size_t>(spec) * words_per_spec +
                           static_cast<std::size_t>(item) / 64;
  bits[word] |= std::uint64_t{1} << (static_cast<std::size_t>(item) % 64);
}

}  // namespace

Tick DefaultHorizon(const Scenario& scenario) {
  if (scenario.horizon > 0) return scenario.horizon;
  const Tick hyper = scenario.set.Hyperperiod();
  return hyper > 0 && hyper < kNoTick / 2 ? 2 * hyper : 0;
}

StatusOr<CompiledPlan> CompiledPlan::Compile(Scenario scenario,
                                             const CompileOptions& options) {
  if (options.lint) {
    LintReport report = LintScenario(scenario, LintFilterOptions());
    if (!report.clean()) {
      return Status::InvalidArgument("scenario failed lint:\n" +
                                     report.Render(scenario.name));
    }
  }
  return CompileUnlinted(std::move(scenario));
}

CompiledPlan CompiledPlan::CompileUnlinted(Scenario scenario) {
  auto impl = std::make_shared<Impl>(std::move(scenario));
  impl->resolved_horizon = DefaultHorizon(impl->scenario);

  const TransactionSet& set = impl->scenario.set;
  const std::size_t words =
      (static_cast<std::size_t>(set.item_count()) + 63) / 64;
  impl->words_per_spec = words;
  impl->read_bits.assign(static_cast<std::size_t>(set.size()) * words, 0);
  impl->write_bits.assign(static_cast<std::size_t>(set.size()) * words, 0);
  for (SpecId spec = 0; spec < set.size(); ++spec) {
    for (ItemId item : set.ReadSet(spec)) {
      SetBit(impl->read_bits, words, spec, item);
    }
    for (ItemId item : set.WriteSet(spec)) {
      SetBit(impl->write_bits, words, spec, item);
    }
  }

  return CompiledPlan(std::move(impl));
}

StatusOr<CompiledPlan> CompiledPlan::Compile(std::string name,
                                             TransactionSet set, Tick horizon,
                                             const CompileOptions& options) {
  Scenario scenario{std::move(name), std::move(set), horizon, {}, {}, {}, {}};
  return Compile(std::move(scenario), options);
}

}  // namespace pcpda
