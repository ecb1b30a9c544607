#ifndef PCPDA_PERFBENCH_TIMING_PROTOCOL_H_
#define PCPDA_PERFBENCH_TIMING_PROTOCOL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "protocols/protocol.h"

namespace pcpda::perfbench {

/// What the timing wrapper saw across every Decide call it forwarded.
struct DecideStats {
  std::int64_t calls = 0;
  double seconds = 0.0;
  /// Indexed by LockDecision::Kind.
  std::int64_t outcomes[4] = {0, 0, 0, 0};
  /// "<protocol>.<rule>" -> decisions, see RuleLabel.
  std::map<std::string, std::int64_t> rules;
  /// Active-set size, sampled at the first Decide of every tick.
  std::int64_t active_samples = 0;
  std::int64_t active_sum = 0;
  std::int64_t active_max = 0;
};

/// The locking rule behind a decision, read from outside the protocol:
/// PCP-DA's notes name LC1-LC4 and its denials; the other protocols
/// leave the note empty and are told apart by kind and block reason.
inline std::string RuleLabel(const LockDecision& decision) {
  switch (decision.kind) {
    case LockDecision::Kind::kGrant:
      return decision.note.empty() ? "grant" : decision.note + ".grant";
    case LockDecision::Kind::kBlock: {
      const std::string reason =
          decision.reason == BlockReason::kCeiling ? "ceiling" : "conflict";
      return (decision.note.empty() ? std::string("block") : decision.note) +
             "." + reason;
    }
    case LockDecision::Kind::kAbortAndGrant:
      return "abort_grant";
    case LockDecision::Kind::kAbortRequester:
      return "abort_self";
  }
  return "unknown";
}

/// Forwards every virtual of a wrapped protocol, timing and tallying each
/// Decide into `stats`, which must outlive the wrapper. The simulator
/// attaches the wrapper; Protocol::Attach is not virtual, so the wrapped
/// protocol is bound lazily to the same view on first use.
class TimingProtocol final : public Protocol {
 public:
  TimingProtocol(std::unique_ptr<Protocol> inner, DecideStats& stats)
      : inner_(std::move(inner)), stats_(&stats) {}

  const char* name() const override { return inner_->name(); }
  UpdateModel update_model() const override {
    return inner_->update_model();
  }
  bool uses_priority_inheritance() const override {
    return inner_->uses_priority_inheritance();
  }
  CeilingRule ceiling_rule() const override {
    return inner_->ceiling_rule();
  }
  bool releases_early() const override { return inner_->releases_early(); }

  LockDecision Decide(const LockRequest& request) const override {
    Bind();
    if (view().now() != sampled_tick_) {
      sampled_tick_ = view().now();
      const auto active = static_cast<std::int64_t>(
          view().LiveJobs(request.job->id()).size() + 1);
      ++stats_->active_samples;
      stats_->active_sum += active;
      if (active > stats_->active_max) stats_->active_max = active;
    }
    const auto start = std::chrono::steady_clock::now();
    LockDecision decision = inner_->Decide(request);
    stats_->seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    ++stats_->calls;
    ++stats_->outcomes[static_cast<int>(decision.kind)];
    ++stats_->rules[std::string(inner_->name()) + "." +
                    RuleLabel(decision)];
    return decision;
  }

  std::vector<std::pair<ItemId, LockMode>> EarlyReleases(
      const Job& job) const override {
    Bind();
    return inner_->EarlyReleases(job);
  }
  Priority CurrentCeiling() const override {
    Bind();
    return inner_->CurrentCeiling();
  }
  std::vector<JobId> CommitVictims(const Job& committing) const override {
    Bind();
    return inner_->CommitVictims(committing);
  }
  void OnCommitApplied(const Job& committed) override {
    Bind();
    inner_->OnCommitApplied(committed);
  }
  void OnAbortApplied(const Job& aborted) override {
    Bind();
    inner_->OnAbortApplied(aborted);
  }

 private:
  void Bind() const {
    if (bound_ != &view()) {
      inner_->Attach(&view());
      bound_ = &view();
    }
  }

  std::unique_ptr<Protocol> inner_;
  DecideStats* stats_;
  mutable const SimView* bound_ = nullptr;
  mutable Tick sampled_tick_ = -1;
};

}  // namespace pcpda::perfbench

#endif  // PCPDA_PERFBENCH_TIMING_PROTOCOL_H_
