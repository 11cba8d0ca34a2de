#include "core/grouping.h"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "viewport/similarity.h"

namespace volcast::core {

const char* to_string(GroupingPolicy policy) noexcept {
  switch (policy) {
    case GroupingPolicy::kUnicastOnly:
      return "unicast-only";
    case GroupingPolicy::kGreedyIoU:
      return "greedy-iou";
    case GroupingPolicy::kPairsOnly:
      return "pairs-only";
    case GroupingPolicy::kExhaustive:
      return "exhaustive";
  }
  return "?";
}

namespace {

/// Plans candidate member lists for one form_groups call. A plan is a pure
/// function of its ordered member list (the callback contract), so each
/// distinct list is priced once. The key is the list in the order the
/// search built it, never sorted: the group beam combines member beams in
/// list order, so a reordered list may price a different beam.
class Planner {
 public:
  Planner(std::span<const UserState> users, const GroupRateFn& group_rate,
          const OverlapBitsFn& overlap_bits)
      : users_(users), group_rate_(group_rate), overlap_bits_(overlap_bits) {}

  /// The MAC plan for one candidate member set.
  mac::GroupPlan plan(std::span<const std::size_t> members) {
    mac::GroupPlan plan;
    plan.members.reserve(members.size());
    if (members.size() > 1) {
      const Priced& priced = price(members);
      plan.group_overlap_bits = priced.overlap_bits;
      plan.multicast_rate_mbps = priced.rate_mbps;
    }
    for (std::size_t m : members) {
      const UserState& u = users_[m];
      plan.members.push_back({u.user, u.total_bits, plan.group_overlap_bits,
                              u.unicast_rate_mbps});
    }
    return plan;
  }

  double time(std::span<const std::size_t> members) {
    return plan(members).transmit_time_s();
  }

  [[nodiscard]] std::size_t evals() const noexcept { return evals_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }

 private:
  struct Priced {
    double overlap_bits;
    double rate_mbps;
  };

  const Priced& price(std::span<const std::size_t> members) {
    std::vector<std::size_t> key(members.begin(), members.end());
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++evals_;
    Priced priced;
    priced.overlap_bits = overlap_bits_(members);
    priced.rate_mbps = group_rate_(members);
    return cache_.emplace(std::move(key), priced).first->second;
  }

  std::span<const UserState> users_;
  const GroupRateFn& group_rate_;
  const OverlapBitsFn& overlap_bits_;
  std::map<std::vector<std::size_t>, Priced> cache_;
  std::size_t evals_ = 0;
  std::size_t hits_ = 0;
};

GroupingResult finalize(std::span<const UserState> users,
                        std::vector<std::vector<std::size_t>> member_sets,
                        Planner& planner) {
  GroupingResult result;
  for (auto& set : member_sets) {
    std::sort(set.begin(), set.end());
    result.schedule.groups.push_back(planner.plan(set));
    std::vector<std::size_t> ids;
    ids.reserve(set.size());
    for (std::size_t m : set) ids.push_back(users[m].user);
    result.groups.push_back(std::move(ids));
  }
  return result;
}

double frame_budget_s(const GrouperConfig& config) {
  return config.target_fps > 0.0 ? 1.0 / config.target_fps
                                 : std::numeric_limits<double>::infinity();
}

GroupingResult greedy(std::span<const UserState> users,
                      const GrouperConfig& config, Planner& planner,
                      std::size_t size_cap) {
  // Start from singletons; repeatedly apply the merge with the largest
  // positive airtime saving among pairs that clear the IoU bar.
  const std::size_t n = users.size();
  std::vector<std::vector<std::size_t>> clusters;
  std::vector<double> cluster_time;  // plan time of each cluster
  for (std::size_t i = 0; i < n; ++i) {
    clusters.push_back({i});
    cluster_time.push_back(planner.time(clusters.back()));
  }
  const double budget_s = frame_budget_s(config);

  // Pairwise viewport IoU, once per call; a user without a map matches
  // nobody.
  std::vector<double> pair_iou(n * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto* a = users[i].visibility;
      const auto* b = users[j].visibility;
      const double v = a != nullptr && b != nullptr ? view::iou(*a, *b) : 0.0;
      pair_iou[i * n + j] = v;
      pair_iou[j * n + i] = v;
    }
  }
  const auto min_pairwise_iou = [&](const std::vector<std::size_t>& members) {
    double lowest = 1.0;
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = i + 1; j < members.size(); ++j)
        lowest = std::min(lowest, pair_iou[members[i] * n + members[j]]);
    return lowest;
  };

  bool merged = true;
  while (merged) {
    merged = false;
    double best_saving = 0.0;
    double best_time = 0.0;
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    std::vector<std::size_t> best_union;
    for (std::size_t a = 0; a < clusters.size(); ++a) {
      for (std::size_t b = a + 1; b < clusters.size(); ++b) {
        std::vector<std::size_t> candidate = clusters[a];
        candidate.insert(candidate.end(), clusters[b].begin(),
                         clusters[b].end());
        if (size_cap != 0 && candidate.size() > size_cap) continue;
        if (min_pairwise_iou(candidate) < config.min_iou) continue;
        const double t_merged = planner.time(candidate);
        if (t_merged > budget_s) continue;  // paper's T_m(k) <= 1/F
        const double saving = cluster_time[a] + cluster_time[b] - t_merged;
        if (saving > best_saving) {
          best_saving = saving;
          best_time = t_merged;
          best_a = a;
          best_b = b;
          best_union = std::move(candidate);
        }
      }
    }
    if (best_saving > 0.0) {
      clusters[best_a] = std::move(best_union);
      cluster_time[best_a] = best_time;
      clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(best_b));
      cluster_time.erase(cluster_time.begin() +
                         static_cast<std::ptrdiff_t>(best_b));
      merged = true;
    }
  }
  return finalize(users, std::move(clusters), planner);
}

GroupingResult exhaustive(std::span<const UserState> users,
                          const GrouperConfig& config, Planner& planner) {
  if (users.size() > 10)
    throw std::invalid_argument(
        "exhaustive grouping is limited to 10 users (Bell-number search)");
  std::vector<std::vector<std::size_t>> current;
  std::vector<std::vector<std::size_t>> best;
  double best_time = std::numeric_limits<double>::infinity();

  const double budget_s = frame_budget_s(config);
  auto total_time = [&](const std::vector<std::vector<std::size_t>>& part) {
    double t = 0.0;
    for (const auto& block : part) {
      const double block_time = planner.time(block);
      // Same per-group feasibility rule the greedy policy enforces: a
      // group that cannot finish within the frame interval is penalized
      // out of contention (but a partition of infeasible singletons can
      // still win when nothing is feasible).
      t += block_time > budget_s && block.size() > 1 ? 1e6 + block_time
                                                     : block_time;
    }
    return t;
  };

  std::function<void(std::size_t)> recurse = [&](std::size_t next) {
    if (next == users.size()) {
      const double t = total_time(current);
      if (t < best_time) {
        best_time = t;
        best = current;
      }
      return;
    }
    // Index-based: recursion grows `current`, which would invalidate any
    // reference held across the recursive call.
    const std::size_t block_count = current.size();
    for (std::size_t b = 0; b < block_count; ++b) {
      if (config.max_group_size != 0 &&
          current[b].size() >= config.max_group_size)
        continue;
      current[b].push_back(next);
      recurse(next + 1);
      current[b].pop_back();
    }
    current.push_back({next});
    recurse(next + 1);
    current.pop_back();
  };
  recurse(0);
  return finalize(users, std::move(best), planner);
}

}  // namespace

GroupingResult form_groups(std::span<const UserState> users,
                           const GrouperConfig& config,
                           const GroupRateFn& group_rate,
                           const OverlapBitsFn& overlap_bits) {
  if (users.empty()) return {};
  Planner planner(users, group_rate, overlap_bits);
  GroupingResult result;
  switch (config.policy) {
    case GroupingPolicy::kUnicastOnly: {
      std::vector<std::vector<std::size_t>> singletons;
      for (std::size_t i = 0; i < users.size(); ++i) singletons.push_back({i});
      result = finalize(users, std::move(singletons), planner);
      break;
    }
    case GroupingPolicy::kGreedyIoU:
      result = greedy(users, config, planner, config.max_group_size);
      break;
    case GroupingPolicy::kPairsOnly:
      result = greedy(users, config, planner, 2);
      break;
    case GroupingPolicy::kExhaustive:
      result = exhaustive(users, config, planner);
      break;
  }
  result.plan_evals = planner.evals();
  result.plan_hits = planner.hits();
  return result;
}

}  // namespace volcast::core
