// The harness's own output check, computed apart from core/verifier.h:
// sort-based instead of the verifier's ordered maps, so a fault in either
// shows up as a disagreement (require_agreement).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

using renaming::NewId;
using renaming::NodeOutcome;
using renaming::OriginalId;

Verdict check_outcomes(const std::vector<NodeOutcome>& outcomes, NodeIndex n,
                       bool exact_rank) {
  Verdict v;
  std::vector<std::pair<OriginalId, NewId>> decided;  // correct nodes only
  decided.reserve(outcomes.size());
  for (const NodeOutcome& o : outcomes) {
    if (!o.correct) continue;
    if (!o.new_id.has_value()) {
      v.all_decided = false;
      continue;
    }
    decided.emplace_back(o.original_id, *o.new_id);
    if (*o.new_id < 1 || *o.new_id > n) v.in_range = false;
  }

  std::vector<NewId> ids;
  ids.reserve(decided.size());
  for (const auto& entry : decided) ids.push_back(entry.second);
  std::sort(ids.begin(), ids.end());
  v.unique = std::adjacent_find(ids.begin(), ids.end()) == ids.end();

  std::sort(decided.begin(), decided.end());
  for (std::size_t i = 1; i < decided.size(); ++i) {
    if (decided[i].second <= decided[i - 1].second) v.order_preserving = false;
  }

  if (!v.all_decided) v.problems.push_back("a correct node never decided");
  if (!v.unique) v.problems.push_back("two correct nodes share a new ID");
  if (!v.in_range) v.problems.push_back("a new ID lies outside [1, n]");
  if (!v.order_preserving) v.problems.push_back("new IDs break the order");

  if (exact_rank) {
    std::vector<OriginalId> all;
    all.reserve(outcomes.size());
    for (const NodeOutcome& o : outcomes) all.push_back(o.original_id);
    std::sort(all.begin(), all.end());
    bool exact = decided.size() == outcomes.size();
    for (const auto& [orig, nid] : decided) {
      const auto rank = static_cast<NewId>(
          std::lower_bound(all.begin(), all.end(), orig) - all.begin() + 1);
      if (nid != rank) exact = false;
    }
    if (!exact) v.problems.push_back("a new ID differs from the exact rank");
  }
  return v;
}

void require_agreement(const renaming::VerifyReport& report, Verdict* v) {
  if (report.all_correct_decided != v->all_decided ||
      report.unique != v->unique || report.strong != v->in_range ||
      report.order_preserving != v->order_preserving) {
    v->problems.push_back(
        "the program's VerifyReport disagrees with the outside check");
  }
}

bool checker_self_test(std::string* why) {
  constexpr NodeIndex n = 6;
  // A clean order-preserving renaming of six nodes, one of them Byzantine
  // (its output is unconstrained and must be ignored).
  const std::vector<NodeOutcome> clean = {
      {40, 3, true}, {10, 1, true}, {70, 6, true},
      {50, 4, true}, {20, 2, true}, {99, 1, false},
  };
  // The same six nodes, all correct: new ID = rank is the only valid
  // outcome at n = 6, so the exact-rank plant widens the namespace to 7.
  std::vector<NodeOutcome> all_correct = clean;
  all_correct[5] = {60, 5, true};
  struct Plant {
    const char* name;
    std::vector<NodeOutcome> outcomes;
    NodeIndex n;
    bool exact_rank;
  };
  std::vector<Plant> plants;
  auto planted = [&](const char* name, auto&& mutate) {
    std::vector<NodeOutcome> o = clean;
    mutate(o);
    plants.push_back({name, std::move(o), n, false});
  };
  planted("duplicate", [](auto& o) { o[3].new_id = 3; });
  planted("out of range high", [](auto& o) { o[2].new_id = n + 1; });
  planted("out of range zero", [](auto& o) { o[1].new_id = 0; });
  planted("order inverted",
          [](auto& o) { std::swap(o[0].new_id, o[3].new_id); });
  planted("undecided", [](auto& o) { o[4].new_id.reset(); });
  std::vector<NodeOutcome> off_rank = all_correct;
  off_rank[2].new_id = 7;  // unique, in [1, 7], ordered, but not the rank
  plants.push_back({"not the exact rank", off_rank, n + 1, true});

  std::string failures;
  if (!check_outcomes(clean, n, false).ok()) failures += " clean-rejected";
  if (!check_outcomes(all_correct, n, true).ok()) {
    failures += " exact-rank-rejected";
  }
  for (const Plant& p : plants) {
    Verdict v = check_outcomes(p.outcomes, p.n, p.exact_rank);
    if (v.ok()) failures += std::string(" ") + p.name + "-accepted";
    // The program's verifier must reach the same verdict on each plant.
    Verdict agreed = v;
    require_agreement(renaming::verify_renaming(p.outcomes, p.n), &agreed);
    if (!p.exact_rank && agreed.problems.size() != v.problems.size()) {
      failures += std::string(" ") + p.name + "-disagrees";
    }
  }
  if (!failures.empty()) {
    if (why != nullptr) *why = "checker self-test failed:" + failures;
    return false;
  }
  return true;
}

}  // namespace perfbench
