#include "workload/scenario.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "common/strings.h"

namespace pcpda {
namespace {

/// A token with the 1-based column of its first character, so parse
/// errors and recorded entity spans can point into the line.
struct Token {
  std::string text;
  int column = 0;
};

/// Splits a line into whitespace-separated tokens, dropping comments.
std::vector<Token> Tokenize(const std::string& line) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size() || line[i] == '#') break;
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    tokens.push_back(
        Token{line.substr(start, i - start), static_cast<int>(start) + 1});
  }
  return tokens;
}

Status ParseError(int line_number, int column, const std::string& message) {
  return Status::InvalidArgument(
      StrFormat("line %d:%d: %s", line_number, column, message.c_str()));
}

bool ParseTick(const std::string& token, Tick* out) {
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || token.empty()) return false;
  *out = static_cast<Tick>(value);
  return true;
}

bool ParseUint64(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token[0] == '-' || token[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

bool ParseDouble(const std::string& token, double* out) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || token.empty()) return false;
  *out = value;
  return true;
}

/// A fault line whose target txn name awaits resolution: spec ids are
/// only final after TransactionSet::Create assigns priorities.
struct PendingFault {
  FaultSpec fault;
  std::string target;
  SourceSpan span;
};

}  // namespace

std::string SourceSpan::DebugString() const {
  if (!valid()) return "?";
  return StrFormat("%d:%d", line, column);
}

StatusOr<Scenario> ParseScenario(const std::string& text) {
  std::string name = "scenario";
  Tick horizon = 0;
  PriorityAssignment assignment = PriorityAssignment::kRateMonotonic;
  std::map<std::string, ItemId> items;
  std::vector<TransactionSpec> specs;
  std::vector<CeilingExpectation> expects;
  ScenarioSpans spans;

  auto item_id = [&items, &spans](const std::string& item_name,
                                  SourceSpan span) {
    auto [it, inserted] =
        items.try_emplace(item_name, static_cast<ItemId>(items.size()));
    if (inserted) spans.items.emplace(item_name, span);
    return it->second;
  };

  bool in_txn = false;
  std::set<std::string> txn_names;
  TransactionSpec current;
  std::vector<SourceSpan> current_steps;
  SourceSpan txn_open;
  bool in_faults = false;
  bool saw_faults = false;
  SourceSpan faults_open;
  bool in_expect = false;
  SourceSpan expect_open;
  std::uint64_t fault_seed = 1;
  std::vector<PendingFault> pending_faults;

  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const std::vector<Token> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0].text;
    const SourceSpan keyword_span{line_number, tokens[0].column};

    if (in_txn) {
      if (keyword == "end") {
        if (tokens.size() != 1) {
          return ParseError(line_number, tokens[1].column,
                            "end takes no arguments");
        }
        spans.steps[current.name] = std::move(current_steps);
        current_steps.clear();
        specs.push_back(std::move(current));
        current = TransactionSpec{};
        in_txn = false;
        continue;
      }
      if (keyword == "read" || keyword == "write") {
        if (tokens.size() < 2 || tokens.size() > 3) {
          return ParseError(line_number, tokens[0].column,
                            keyword + " needs an item and an optional "
                                      "duration");
        }
        Tick duration = 1;
        if (tokens.size() == 3 &&
            (!ParseTick(tokens[2].text, &duration) || duration <= 0)) {
          return ParseError(line_number, tokens[2].column, "bad duration");
        }
        const ItemId item =
            item_id(tokens[1].text,
                    SourceSpan{line_number, tokens[1].column});
        current.body.push_back(keyword == "read" ? Read(item, duration)
                                                 : Write(item, duration));
        current_steps.push_back(keyword_span);
        continue;
      }
      if (keyword == "compute") {
        Tick duration = 0;
        if (tokens.size() != 2 || !ParseTick(tokens[1].text, &duration) ||
            duration <= 0) {
          return ParseError(line_number, tokens[0].column,
                            "compute needs a positive duration");
        }
        current.body.push_back(Compute(duration));
        current_steps.push_back(keyword_span);
        continue;
      }
      return ParseError(line_number, tokens[0].column,
                        "unknown step '" + keyword +
                            "' (expected read/write/compute/end)");
    }

    if (in_faults) {
      if (keyword == "end") {
        if (tokens.size() != 1) {
          return ParseError(line_number, tokens[1].column,
                            "end takes no arguments");
        }
        in_faults = false;
        continue;
      }
      FaultKind kind;
      if (keyword == "abort") {
        kind = FaultKind::kAbort;
      } else if (keyword == "restart") {
        kind = FaultKind::kRestartInCs;
      } else if (keyword == "overrun") {
        kind = FaultKind::kOverrun;
      } else if (keyword == "delay") {
        kind = FaultKind::kDelayArrival;
      } else if (keyword == "burst") {
        kind = FaultKind::kBurstArrival;
      } else {
        return ParseError(line_number, tokens[0].column,
                          "unknown fault '" + keyword +
                              "' (expected abort/restart/overrun/delay/"
                              "burst/end)");
      }
      if (tokens.size() < 2) {
        return ParseError(line_number, tokens[0].column,
                          keyword + " needs a target txn name or *");
      }
      PendingFault pending;
      pending.fault.kind = kind;
      pending.target = tokens[1].text;
      pending.span = keyword_span;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::string& attr = tokens[i].text;
        const int attr_column = tokens[i].column;
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return ParseError(line_number, attr_column,
                            "fault attribute must be key=value: " + attr);
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        if (key == "at") {
          if (!ParseTick(value, &pending.fault.at) ||
              pending.fault.at < 0) {
            return ParseError(line_number, attr_column,
                              "at must be a tick >= 0 in " + attr);
          }
        } else if (key == "prob") {
          if (!ParseDouble(value, &pending.fault.probability) ||
              pending.fault.probability < 0.0 ||
              pending.fault.probability > 1.0) {
            return ParseError(line_number, attr_column,
                              "prob must be in [0, 1] in " + attr);
          }
        } else if (key == "by" || key == "upto") {
          if (!ParseTick(value, &pending.fault.extra) ||
              pending.fault.extra <= 0) {
            return ParseError(line_number, attr_column,
                              key + " must be a positive tick count in " +
                                  attr);
          }
        } else if (key == "count") {
          Tick count = 0;
          if (!ParseTick(value, &count) || count <= 0 ||
              count > (1 << 20)) {
            return ParseError(line_number, attr_column,
                              "count must be in [1, 2^20] in " + attr);
          }
          pending.fault.count = static_cast<int>(count);
        } else {
          return ParseError(line_number, attr_column,
                            "unknown fault attribute " + key);
        }
      }
      pending_faults.push_back(std::move(pending));
      continue;
    }

    if (in_expect) {
      if (keyword == "end") {
        if (tokens.size() != 1) {
          return ParseError(line_number, tokens[1].column,
                            "end takes no arguments");
        }
        in_expect = false;
        continue;
      }
      if (keyword == "wceil" || keyword == "aceil") {
        if (tokens.size() != 3) {
          return ParseError(line_number, tokens[0].column,
                            keyword +
                                " needs an item and a txn name (or dummy)");
        }
        CeilingExpectation expectation;
        expectation.write_ceiling = keyword == "wceil";
        expectation.item = tokens[1].text;
        expectation.txn = tokens[2].text;
        expectation.span = keyword_span;
        expects.push_back(std::move(expectation));
        continue;
      }
      return ParseError(line_number, tokens[0].column,
                        "unknown expectation '" + keyword +
                            "' (expected wceil/aceil/end)");
    }

    if (keyword == "scenario") {
      if (tokens.size() != 2) {
        return ParseError(line_number, tokens[0].column,
                          "scenario needs a name");
      }
      name = tokens[1].text;
      continue;
    }
    if (keyword == "horizon") {
      if (tokens.size() != 2 || !ParseTick(tokens[1].text, &horizon) ||
          horizon <= 0) {
        return ParseError(line_number, tokens[0].column,
                          "horizon needs a positive tick");
      }
      spans.horizon = keyword_span;
      continue;
    }
    if (keyword == "priority") {
      if (tokens.size() != 2) {
        return ParseError(line_number, tokens[0].column,
                          "priority needs a mode");
      }
      if (tokens[1].text == "as-listed") {
        assignment = PriorityAssignment::kAsListed;
      } else if (tokens[1].text == "rate-monotonic") {
        assignment = PriorityAssignment::kRateMonotonic;
      } else {
        return ParseError(line_number, tokens[1].column,
                          "priority mode must be as-listed or "
                          "rate-monotonic");
      }
      continue;
    }
    if (keyword == "item") {
      if (tokens.size() != 2) {
        return ParseError(line_number, tokens[0].column,
                          "item needs a name");
      }
      item_id(tokens[1].text, SourceSpan{line_number, tokens[1].column});
      continue;
    }
    if (keyword == "txn") {
      if (tokens.size() < 2) {
        return ParseError(line_number, tokens[0].column,
                          "txn needs a name");
      }
      current = TransactionSpec{};
      current.name = tokens[1].text;
      if (!txn_names.insert(current.name).second) {
        return ParseError(line_number, tokens[1].column,
                          "duplicate txn name '" + current.name + "'");
      }
      txn_open = SourceSpan{line_number, tokens[1].column};
      spans.txns.emplace(current.name, txn_open);
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::string& attr = tokens[i].text;
        const int attr_column = tokens[i].column;
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return ParseError(line_number, attr_column,
                            "txn attribute must be key=value: " + attr);
        }
        const std::string key = attr.substr(0, eq);
        Tick value = 0;
        if (!ParseTick(attr.substr(eq + 1), &value)) {
          return ParseError(line_number, attr_column,
                            "bad value in " + attr);
        }
        if (value < 0) {
          return ParseError(line_number, attr_column,
                            key + " must be >= 0 in " + attr);
        }
        if (key == "period") {
          current.period = value;
        } else if (key == "offset") {
          current.offset = value;
        } else if (key == "deadline") {
          current.relative_deadline = value;
        } else {
          return ParseError(line_number, attr_column,
                            "unknown txn attribute " + key);
        }
      }
      in_txn = true;
      continue;
    }
    if (keyword == "faults") {
      if (saw_faults) {
        return ParseError(line_number, tokens[0].column,
                          "duplicate faults block");
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string& attr = tokens[i].text;
        const int attr_column = tokens[i].column;
        const auto eq = attr.find('=');
        if (eq == std::string::npos || attr.substr(0, eq) != "seed") {
          return ParseError(line_number, attr_column,
                            "faults takes only seed=<n>: " + attr);
        }
        // Seeds use the full uint64 domain (FormatScenario writes %llu),
        // so Tick (int64) parsing would clamp the upper half.
        if (!ParseUint64(attr.substr(eq + 1), &fault_seed)) {
          return ParseError(line_number, attr_column,
                            "bad value in " + attr);
        }
      }
      in_faults = true;
      saw_faults = true;
      faults_open = keyword_span;
      continue;
    }
    if (keyword == "expect") {
      if (tokens.size() != 1) {
        return ParseError(line_number, tokens[1].column,
                          "expect takes no arguments");
      }
      in_expect = true;
      expect_open = keyword_span;
      continue;
    }
    return ParseError(line_number, tokens[0].column,
                      "unknown directive '" + keyword + "'");
  }
  if (in_txn) {
    return ParseError(txn_open.line, txn_open.column,
                      "unterminated txn '" + current.name +
                          "' (missing 'end')");
  }
  if (in_faults) {
    return ParseError(faults_open.line, faults_open.column,
                      "unterminated faults (missing 'end')");
  }
  if (in_expect) {
    return ParseError(expect_open.line, expect_open.column,
                      "unterminated expect (missing 'end')");
  }
  if (specs.empty()) {
    return Status::InvalidArgument("scenario declares no transactions");
  }

  auto set = TransactionSet::Create(std::move(specs), assignment);
  PCPDA_RETURN_IF_ERROR(set.status());
  TransactionSet txns = std::move(set).value();

  // Resolve fault targets by name now that priority assignment has fixed
  // the spec ids.
  FaultConfig faults;
  faults.seed = fault_seed;
  for (const PendingFault& pending : pending_faults) {
    FaultSpec fault = pending.fault;
    if (pending.target == "*") {
      fault.spec = kInvalidSpec;
    } else {
      fault.spec = kInvalidSpec;
      for (SpecId i = 0; i < txns.size(); ++i) {
        if (txns.spec(i).name == pending.target) {
          fault.spec = i;
          break;
        }
      }
      if (fault.spec == kInvalidSpec) {
        return ParseError(pending.span.line, pending.span.column,
                          "fault targets unknown txn '" + pending.target +
                              "'");
      }
    }
    faults.faults.push_back(fault);
    spans.faults.push_back(pending.span);
  }
  PCPDA_RETURN_IF_ERROR(ValidateFaultConfig(faults, txns));

  Scenario scenario{name,
                    std::move(txns),
                    horizon,
                    std::move(items),
                    std::move(faults),
                    std::move(expects),
                    std::move(spans)};
  return scenario;
}

StatusOr<std::string> ReadScenarioFile(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::exists(path, ec) &&
      !std::filesystem::is_regular_file(path, ec)) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open scenario file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

StatusOr<Scenario> LoadScenarioFile(const std::string& path) {
  auto text = ReadScenarioFile(path);
  if (!text.ok()) return text.status();
  return ParseScenario(*text);
}

StatusOr<std::vector<std::string>> ListScenarioFiles(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::error_code entry_ec;  // a dangling symlink is skipped, not fatal
    if (entry.is_regular_file(entry_ec) &&
        entry.path().extension() == ".scn") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::NotFound(
        StrFormat("cannot list %s: %s", dir.c_str(), ec.message().c_str()));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string FormatScenario(const std::string& name,
                           const TransactionSet& set, Tick horizon) {
  std::vector<std::string> lines;
  lines.push_back("scenario " + name);
  if (horizon > 0) {
    lines.push_back(
        StrFormat("horizon %lld", static_cast<long long>(horizon)));
  }
  // The set is emitted in priority order, which as-listed reproduces
  // regardless of how it was originally assigned.
  lines.push_back("priority as-listed");
  // Pre-declare items in id order so the parse assigns identical ids.
  for (ItemId item = 0; item < set.item_count(); ++item) {
    lines.push_back(StrFormat("item d%d", item));
  }
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    std::string header = "txn " + spec.name;
    if (spec.period > 0) {
      header += StrFormat(" period=%lld",
                          static_cast<long long>(spec.period));
    }
    if (spec.offset > 0) {
      header += StrFormat(" offset=%lld",
                          static_cast<long long>(spec.offset));
    }
    if (spec.relative_deadline > 0) {
      header += StrFormat(" deadline=%lld",
                          static_cast<long long>(spec.relative_deadline));
    }
    lines.push_back(std::move(header));
    for (const Step& step : spec.body) {
      switch (step.kind) {
        case StepKind::kCompute:
          lines.push_back(StrFormat(
              "  compute %lld", static_cast<long long>(step.duration)));
          break;
        case StepKind::kRead:
          lines.push_back(StrFormat(
              "  read d%d %lld", step.item,
              static_cast<long long>(step.duration)));
          break;
        case StepKind::kWrite:
          lines.push_back(StrFormat(
              "  write d%d %lld", step.item,
              static_cast<long long>(step.duration)));
          break;
      }
    }
    lines.push_back("end");
  }
  return Join(lines, "\n") + "\n";
}

namespace {
/// Renders the `faults ... end` block of `scenario`.
std::string FormatFaults(const Scenario& scenario);
}  // namespace

std::string FormatScenario(const Scenario& scenario) {
  std::string out =
      FormatScenario(scenario.name, scenario.set, scenario.horizon);
  if (scenario.faults.enabled()) {
    out += FormatFaults(scenario);
  }
  if (!scenario.expects.empty()) {
    std::vector<std::string> lines;
    lines.push_back("expect");
    for (const CeilingExpectation& expect : scenario.expects) {
      // The set half of the file renames items to d<id>, so expectation
      // item names must follow; a name the scenario never resolved (a
      // dangling reference the linter flags) is kept verbatim so the
      // diagnostic survives the round trip. Txn names are emitted
      // unchanged ("dummy" included — it means "no ceiling").
      const auto it = scenario.items.find(expect.item);
      const std::string item =
          it != scenario.items.end()
              ? StrFormat("d%d", it->second)
              : expect.item;
      lines.push_back(StrFormat(
          "  %s %s %s", expect.write_ceiling ? "wceil" : "aceil",
          item.c_str(), expect.txn.c_str()));
    }
    lines.push_back("end");
    out += Join(lines, "\n") + "\n";
  }
  return out;
}

namespace {

std::string FormatFaults(const Scenario& scenario) {
  std::vector<std::string> lines;
  lines.push_back(StrFormat(
      "faults seed=%llu",
      static_cast<unsigned long long>(scenario.faults.seed)));
  for (const FaultSpec& fault : scenario.faults.faults) {
    std::string line = StrFormat("  %s ", ToString(fault.kind));
    line += fault.spec == kInvalidSpec
                ? "*"
                : scenario.set.spec(fault.spec).name;
    if (fault.at != kNoTick) {
      line += StrFormat(" at=%lld", static_cast<long long>(fault.at));
    }
    if (fault.probability > 0.0) {
      // %.17g round-trips any double exactly: a truncated probability
      // would shift every later per-tick Bernoulli draw, making the
      // serialized scenario behave differently from the original.
      line += StrFormat(" prob=%.17g", fault.probability);
    }
    if (fault.kind == FaultKind::kOverrun) {
      line += StrFormat(" by=%lld", static_cast<long long>(fault.extra));
    }
    if (fault.kind == FaultKind::kDelayArrival) {
      line += StrFormat(" upto=%lld", static_cast<long long>(fault.extra));
    }
    if (fault.kind == FaultKind::kBurstArrival) {
      line += StrFormat(" count=%d", fault.count);
    }
    lines.push_back(std::move(line));
  }
  lines.push_back("end");
  return Join(lines, "\n") + "\n";
}

}  // namespace

}  // namespace pcpda
