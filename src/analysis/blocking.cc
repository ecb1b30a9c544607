#include "analysis/blocking.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {
namespace {

bool Intersects(const std::set<ItemId>& a, const std::set<ItemId>& b) {
  for (ItemId x : a) {
    if (b.contains(x)) return true;
  }
  return false;
}

/// Items on which `a` and `b` conflict (some access of one is a write of
/// the other). Read-read sharing is compatible under every protocol.
std::set<ItemId> ConflictItems(const TransactionSpec& a,
                               const TransactionSpec& b) {
  std::set<ItemId> items;
  for (ItemId x : a.WriteSet()) {
    if (b.AccessSet().contains(x)) items.insert(x);
  }
  for (ItemId x : b.WriteSet()) {
    if (a.AccessSet().contains(x)) items.insert(x);
  }
  return items;
}

}  // namespace

Tick BlockingAnalysis::B(SpecId spec) const {
  const SpecBlocking& sb = ForSpec(spec);
  PCPDA_CHECK_MSG(
      sb.bounded,
      StrFormat("BlockingAnalysis::B(%d): no finite blocking bound under "
                "%s — check ProtocolTraits::analyzable() first",
                spec, ToString(protocol))
          .c_str());
  return sb.worst_blocking;
}

const SpecBlocking& BlockingAnalysis::ForSpec(SpecId spec) const {
  PCPDA_CHECK_MSG(
      spec >= 0 && static_cast<std::size_t>(spec) < per_spec.size(),
      StrFormat("BlockingAnalysis::ForSpec(%d): spec id out of range "
                "[0, %zu)",
                spec, per_spec.size())
          .c_str());
  return per_spec[static_cast<std::size_t>(spec)];
}

std::vector<Tick> BlockingAnalysis::AllB() const {
  std::vector<Tick> b;
  b.reserve(per_spec.size());
  for (SpecId i = 0; i < static_cast<SpecId>(per_spec.size()); ++i) {
    b.push_back(B(i));
  }
  return b;
}

std::string BlockingAnalysis::DebugString(const TransactionSet& set) const {
  std::vector<std::string> lines;
  lines.push_back(StrFormat("blocking analysis under %s:",
                            pcpda::ToString(protocol)));
  for (SpecId i = 0; i < set.size(); ++i) {
    const SpecBlocking& sb = per_spec[static_cast<std::size_t>(i)];
    std::vector<std::string> names;
    names.reserve(sb.bts.size());
    for (SpecId l : sb.bts) names.push_back(set.spec(l).name);
    std::string line = StrFormat(
        "  %s: B=%s BTS={%s}", set.spec(i).name.c_str(),
        sb.bounded
            ? StrFormat("%lld", static_cast<long long>(sb.worst_blocking))
                  .c_str()
            : "unbounded",
        Join(names, ",").c_str());
    if (!sb.restart_sources.empty()) {
      std::vector<std::string> sources;
      for (const RestartSource& source : sb.restart_sources) {
        sources.push_back(StrFormat("%s x%d",
                                    set.spec(source.spec).name.c_str(),
                                    source.per_release));
      }
      line += StrFormat(" restarts={%s}", Join(sources, ",").c_str());
    }
    lines.push_back(line);
  }
  return Join(lines, "\n");
}

namespace {

/// The ceiling an item raises while `spec` holds it (its highest-mode
/// contribution over the body).
Priority ItemContribution(const TransactionSpec& spec,
                          const StaticCeilings& ceilings, ItemId item) {
  if (spec.WriteSet().contains(item)) return ceilings.Aceil(item);
  return ceilings.Wceil(item);
}

/// Section-9 BTS membership of `lower` in BTS_i at priority `p_i`.
bool CeilingBlocks(ProtocolKind protocol, const TransactionSpec& lower,
                   const StaticCeilings& ceilings, Priority p_i) {
  switch (protocol) {
    case ProtocolKind::kPcpDa: {
      for (ItemId x : lower.ReadSet()) {
        if (ceilings.Wceil(x) >= p_i) return true;
      }
      return false;
    }
    case ProtocolKind::kRwPcp:
    case ProtocolKind::kCcp: {
      for (ItemId x : lower.ReadSet()) {
        if (ceilings.Wceil(x) >= p_i) return true;
      }
      for (ItemId x : lower.WriteSet()) {
        if (ceilings.Aceil(x) >= p_i) return true;
      }
      return false;
    }
    case ProtocolKind::kOpcp: {
      for (ItemId x : lower.AccessSet()) {
        if (ceilings.Aceil(x) >= p_i) return true;
      }
      return false;
    }
    default:
      PCPDA_UNREACHABLE("not a ceiling protocol");
  }
}

void ComputeCeiling(const TransactionSet& set, ProtocolKind protocol,
                    BlockingAnalysis& analysis) {
  const StaticCeilings ceilings(set);
  for (SpecId i = 0; i < set.size(); ++i) {
    const Priority p_i = set.priority(i);
    SpecBlocking& sb = analysis.per_spec[static_cast<std::size_t>(i)];
    for (SpecId l = i + 1; l < set.size(); ++l) {
      const TransactionSpec& lower = set.spec(l);
      if (!CeilingBlocks(protocol, lower, ceilings, p_i)) continue;
      sb.bts.push_back(l);
      const Tick contribution = protocol == ProtocolKind::kCcp
                                    ? CcpHoldingWindow(lower, ceilings, p_i)
                                    : lower.ExecutionTime();
      sb.worst_blocking = std::max(sb.worst_blocking, contribution);
    }
  }
}

/// 2PL-HP. A requester aborts every conflicting holder iff it outranks
/// them all; otherwise it waits on the whole set — including lower
/// priority riders holding the same item behind a higher-priority
/// holder. B_i conservatively sums the execution times of every lower
/// spec T_i conflicts with (each rider can be mid-body when T_i arrives
/// at the lock). Higher-priority conflicting specs cannot block T_i for
/// long — they abort it instead — so they enter the restart sources: one
/// abort per conflicting lock request, at most one request per body step
/// touching a conflicting item.
void ComputeTwoPlHp(const TransactionSet& set, BlockingAnalysis& analysis) {
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    SpecBlocking& sb = analysis.per_spec[static_cast<std::size_t>(i)];
    for (SpecId l = i + 1; l < set.size(); ++l) {
      const TransactionSpec& lower = set.spec(l);
      if (ConflictItems(spec, lower).empty()) continue;
      sb.bts.push_back(l);
      sb.worst_blocking += lower.ExecutionTime();
    }
    for (SpecId h = 0; h < i; ++h) {
      const TransactionSpec& higher = set.spec(h);
      const std::set<ItemId> items = ConflictItems(higher, spec);
      if (items.empty()) continue;
      int requests = 0;
      for (const Step& step : higher.body) {
        if (step.kind != StepKind::kCompute && items.contains(step.item)) {
          ++requests;
        }
      }
      sb.restart_sources.push_back(RestartSource{h, requests});
    }
  }
}

/// OCC-BC / OCC-DA. Requests are always granted, so B_i = 0. A commit
/// whose write set intersects T_i's read set invalidates T_i: OCC-BC
/// aborts it at broadcast, OCC-DA either at broadcast (if T_i wrote) or
/// through a later snapshot-constraint violation — either way at most
/// one abort per committing instance. Lower-priority specs never commit
/// while T_i is active (an OCC job is always ready, so nothing of lower
/// priority runs under it), leaving only higher-priority sources.
void ComputeOcc(const TransactionSet& set, BlockingAnalysis& analysis) {
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    SpecBlocking& sb = analysis.per_spec[static_cast<std::size_t>(i)];
    for (SpecId h = 0; h < i; ++h) {
      if (!Intersects(set.WriteSet(h), spec.ReadSet())) continue;
      sb.restart_sources.push_back(RestartSource{h, 1});
    }
  }
}

/// 2PL-PI. A blocked requester donates its priority down a wait chain of
/// arbitrary depth, so a spec that conflicts with anyone has no finite
/// effective-blocking bound. A spec with no conflicting item at all is
/// never denied a lock and gets B_i = 0.
void ComputeTwoPlPi(const TransactionSet& set, BlockingAnalysis& analysis) {
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    SpecBlocking& sb = analysis.per_spec[static_cast<std::size_t>(i)];
    for (SpecId other = 0; other < set.size(); ++other) {
      if (other == i) continue;
      if (ConflictItems(spec, set.spec(other)).empty()) continue;
      sb.bounded = false;
      analysis.bounded = false;
      break;
    }
  }
}

}  // namespace

Tick CcpHoldingWindow(const TransactionSpec& spec,
                      const StaticCeilings& ceilings, Priority level) {
  const auto& body = spec.body;
  // Step start/end offsets within the body.
  std::vector<Tick> start(body.size()), end(body.size());
  Tick offset = 0;
  for (std::size_t k = 0; k < body.size(); ++k) {
    start[k] = offset;
    offset += body[k].duration;
    end[k] = offset;
  }
  const Tick total = offset;

  // First-access step per item.
  std::map<ItemId, std::size_t> first_access;
  for (std::size_t k = 0; k < body.size(); ++k) {
    if (body[k].kind == StepKind::kCompute) continue;
    first_access.try_emplace(body[k].item, k);
  }

  // The end of the growing phase: the step performing the body's last NEW
  // lock acquisition (first access of an item, or a read->write upgrade).
  // CCP releases nothing before that point (see Ccp::EarlyReleases).
  std::size_t last_acquisition = 0;
  std::set<ItemId> written;
  std::set<ItemId> seen;
  for (std::size_t k = 0; k < body.size(); ++k) {
    if (body[k].kind == StepKind::kCompute) continue;
    const bool new_item = seen.insert(body[k].item).second;
    const bool upgrade = body[k].kind == StepKind::kWrite &&
                         written.insert(body[k].item).second;
    if (new_item || upgrade) last_acquisition = k;
  }
  const Tick shrink_start = end[last_acquisition];

  Tick window_start = total;
  Tick window_end = 0;
  bool any = false;
  for (const auto& [item, first_k] : first_access) {
    const Priority contribution = ItemContribution(spec, ceilings, item);
    if (contribution < level) continue;
    // Released right after the later of (its own last use, the end of the
    // growing phase).
    std::size_t last_access = first_k;
    for (std::size_t k = first_k; k < body.size(); ++k) {
      if (body[k].kind != StepKind::kCompute && body[k].item == item) {
        last_access = k;
      }
    }
    const Tick release = std::max(end[last_access], shrink_start);
    any = true;
    window_start = std::min(window_start, start[first_k]);
    window_end = std::max(window_end, release);
  }
  return any ? window_end - window_start : 0;
}

BlockingAnalysis ComputeBlocking(const TransactionSet& set,
                                 ProtocolKind protocol) {
  BlockingAnalysis analysis;
  analysis.protocol = protocol;
  analysis.per_spec.resize(static_cast<std::size_t>(set.size()));
  switch (TraitsOf(protocol).blocking_bound) {
    case BlockingBoundKind::kCeiling:
      ComputeCeiling(set, protocol, analysis);
      break;
    case BlockingBoundKind::kPushThrough:
      ComputeTwoPlHp(set, analysis);
      break;
    case BlockingBoundKind::kNone:
      ComputeOcc(set, analysis);
      break;
    case BlockingBoundKind::kUnbounded:
      ComputeTwoPlPi(set, analysis);
      break;
  }
  return analysis;
}

}  // namespace pcpda
