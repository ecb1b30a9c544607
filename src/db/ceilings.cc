#include "db/ceilings.h"

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

StaticCeilings::StaticCeilings(const TransactionSet& set) {
  const std::size_t n = static_cast<std::size_t>(set.item_count());
  wceil_.assign(n, Priority::Dummy());
  aceil_.assign(n, Priority::Dummy());
  writers_.resize(n);
  readers_.resize(n);
  // Specs are iterated highest priority first, so the per-item lists come
  // out sorted and the first writer of x defines Wceil(x).
  for (SpecId i = 0; i < set.size(); ++i) {
    const Priority p = set.priority(i);
    for (ItemId x : set.WriteSet(i)) {
      auto xi = static_cast<std::size_t>(x);
      wceil_[xi] = Max(wceil_[xi], p);
      aceil_[xi] = Max(aceil_[xi], p);
      writers_[xi].push_back(i);
    }
    for (ItemId x : set.ReadSet(i)) {
      auto xi = static_cast<std::size_t>(x);
      aceil_[xi] = Max(aceil_[xi], p);
      readers_[xi].push_back(i);
    }
  }
}

Priority StaticCeilings::Wceil(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return wceil_[static_cast<std::size_t>(item)];
}

Priority StaticCeilings::Aceil(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return aceil_[static_cast<std::size_t>(item)];
}

const std::vector<SpecId>& StaticCeilings::WritersOf(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return writers_[static_cast<std::size_t>(item)];
}

const std::vector<SpecId>& StaticCeilings::ReadersOf(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return readers_[static_cast<std::size_t>(item)];
}

std::string StaticCeilings::DebugString(const TransactionSet& set) const {
  std::vector<std::string> lines;
  for (ItemId x = 0; x < item_count(); ++x) {
    auto name = [&](Priority p) -> std::string {
      if (p.is_dummy()) return "dummy";
      for (SpecId i = 0; i < set.size(); ++i) {
        if (set.priority(i) == p) {
          return StrFormat("P(%s)", set.spec(i).name.c_str());
        }
      }
      return p.DebugString();
    };
    lines.push_back(StrFormat("d%d: Wceil=%s Aceil=%s", x,
                              name(Wceil(x)).c_str(),
                              name(Aceil(x)).c_str()));
  }
  return Join(lines, "\n");
}

}  // namespace pcpda
