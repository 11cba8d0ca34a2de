// form_groups with a reused GroupingWorkspace against the search as it was
// before the workspace: a test-side copy of that greedy search (a map plan
// cache keyed by a freshly built member vector, GroupPlans built for every
// plan time, new candidate vectors per pair). On seeded audiences of 2 to
// 16 users, one workspace carried from instance to instance, both must
// return the same groups and schedule bit for bit, the same plan counts,
// and make the same callback calls with the same member lists in the same
// order (so every time_unless lookup is unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/grouping.h"
#include "viewport/similarity.h"

namespace volcast::core {
namespace {

using view::VisibilityMap;

// ---- the search before the workspace (test-side copy) --------------------

namespace before {

class Planner {
 public:
  Planner(std::span<const UserState> users, const GroupRateFn& group_rate,
          const GroupRateBoundFn& rate_bound,
          const OverlapBitsFn& overlap_bits)
      : users_(users),
        group_rate_(group_rate),
        rate_bound_(rate_bound),
        overlap_bits_(overlap_bits) {}

  mac::GroupPlan plan(std::span<const std::size_t> members) {
    if (members.size() < 2) return make_plan(members, 0.0, 0.0);
    Entry& e = entry(members);
    if (e.priced) {
      ++hits_;
    } else {
      price(e, members);
    }
    return make_plan(members, e.overlap_bits, e.rate_mbps);
  }

  double time(std::span<const std::size_t> members) {
    return plan(members).transmit_time_s();
  }

  template <class RuledOut>
  std::optional<double> time_unless(std::span<const std::size_t> members,
                                    const RuledOut& ruled_out) {
    Entry& e = entry(members);
    if (e.priced) {
      ++hits_;
      return e.time_s;
    }
    if (!e.time_lb.has_value()) {
      e.time_lb = 0.0;
      if (rate_bound_) {
        const mac::GroupPlan bound =
            make_plan(members, e.overlap_bits, rate_bound_(members));
        e.time_lb = std::min(bound.transmit_time_s(), bound.unicast_time_s());
      }
    }
    if (ruled_out(*e.time_lb)) {
      ++skips_;
      return std::nullopt;
    }
    price(e, members);
    return e.time_s;
  }

  std::size_t evals = 0;
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t skips() const noexcept { return skips_; }

 private:
  struct Entry {
    double overlap_bits = 0.0;
    std::optional<double> time_lb;
    bool priced = false;
    double rate_mbps = 0.0;
    double time_s = 0.0;
  };

  mac::GroupPlan make_plan(std::span<const std::size_t> members,
                           double overlap_bits, double rate_mbps) const {
    mac::GroupPlan plan;
    plan.group_overlap_bits = overlap_bits;
    plan.multicast_rate_mbps = rate_mbps;
    for (std::size_t m : members) {
      const UserState& u = users_[m];
      plan.members.push_back(
          {u.user, u.total_bits, overlap_bits, u.unicast_rate_mbps});
    }
    return plan;
  }

  Entry& entry(std::span<const std::size_t> members) {
    std::vector<std::size_t> key(members.begin(), members.end());
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    Entry e;
    e.overlap_bits = overlap_bits_(members);
    return cache_.emplace(std::move(key), e).first->second;
  }

  void price(Entry& e, std::span<const std::size_t> members) {
    ++evals;
    e.rate_mbps = group_rate_(members);
    e.time_s = make_plan(members, e.overlap_bits, e.rate_mbps)
                   .transmit_time_s();
    e.priced = true;
  }

  std::span<const UserState> users_;
  const GroupRateFn& group_rate_;
  const GroupRateBoundFn& rate_bound_;
  const OverlapBitsFn& overlap_bits_;
  std::map<std::vector<std::size_t>, Entry> cache_;
  std::size_t hits_ = 0;
  std::size_t skips_ = 0;
};

GroupingResult greedy(std::span<const UserState> users,
                      const GrouperConfig& config, const GroupRateFn& rate,
                      const OverlapBitsFn& overlap,
                      const GroupRateBoundFn& bound) {
  Planner planner(users, rate, bound, overlap);
  const std::size_t size_cap =
      config.policy == GroupingPolicy::kPairsOnly ? 2 : config.max_group_size;
  const std::size_t n = users.size();
  std::vector<std::vector<std::size_t>> clusters;
  std::vector<double> cluster_time;
  for (std::size_t i = 0; i < n; ++i) {
    clusters.push_back({i});
    cluster_time.push_back(planner.time(clusters.back()));
  }
  const double budget_s = 1.0 / config.target_fps;
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
        const std::optional<double> priced =
            planner.time_unless(candidate, [&](double t_lb) {
              return t_lb > budget_s ||
                     cluster_time[a] + cluster_time[b] - t_lb <= best_saving;
            });
        if (!priced.has_value()) continue;
        const double t_merged = *priced;
        if (t_merged > budget_s) continue;
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
  GroupingResult result;
  for (auto& set : clusters) {
    std::sort(set.begin(), set.end());
    result.schedule.groups.push_back(planner.plan(set));
    std::vector<std::size_t> ids;
    for (std::size_t m : set) ids.push_back(users[m].user);
    result.groups.push_back(std::move(ids));
  }
  result.plan_evals = planner.evals;
  result.plan_hits = planner.hits();
  result.plan_skips = planner.skips();
  return result;
}

}  // namespace before

// ---- seeded instances ------------------------------------------------------

/// Every callback call, in order: which callback and the list it saw.
struct CallLog {
  std::vector<std::pair<char, std::vector<std::size_t>>> calls;

  void add(char kind, std::span<const std::size_t> idx) {
    calls.emplace_back(kind, std::vector<std::size_t>(idx.begin(), idx.end()));
  }
};

/// Random viewports over 24 cells, per-user demand and rates, and an
/// order-sensitive group rate with an upper bound that holds for every
/// order of a list.
struct Instance {
  std::vector<VisibilityMap> maps;
  std::vector<UserState> users;
  double rate_scale = 1.0;

  Instance(std::size_t count, Rng& rng) {
    maps.assign(count, VisibilityMap(24));
    for (auto& m : maps) {
      const auto lo = static_cast<vv::CellId>(rng.uniform_int(0, 10));
      const auto hi = static_cast<vv::CellId>(rng.uniform_int(12, 23));
      for (vv::CellId c = lo; c <= hi; ++c)
        if (rng.chance(0.85)) m.set(c, rng.uniform(0.3, 1.0));
    }
    for (std::size_t u = 0; u < count; ++u)
      users.push_back({100 + u, &maps[u], rng.uniform(2e6, 14e6),
                       rng.chance(0.05) ? 0.0 : rng.uniform(500.0, 1700.0)});
    rate_scale = rng.uniform(0.6, 1.4);
  }

  [[nodiscard]] GroupRateFn rate(CallLog& log) const {
    return [this, &log](std::span<const std::size_t> idx) {
      log.add('r', idx);
      double r = rate_scale * (1500.0 - 40.0 * static_cast<double>(idx.size()));
      r -= 4.0 * static_cast<double>(idx.front());
      for (std::size_t i = 1; i < idx.size(); ++i)
        r -= 0.5 * static_cast<double>(idx[i] * i);
      return std::max(r, 0.0);
    };
  }
  [[nodiscard]] GroupRateBoundFn bound(CallLog& log) const {
    return [this, &log](std::span<const std::size_t> idx) {
      log.add('b', idx);
      const double lowest =
          static_cast<double>(*std::min_element(idx.begin(), idx.end()));
      return std::max(
          rate_scale * (1500.0 - 40.0 * static_cast<double>(idx.size())) -
              4.0 * lowest,
          0.0);
    };
  }
  [[nodiscard]] OverlapBitsFn overlap(CallLog& log) const {
    return [this, &log](std::span<const std::size_t> idx) {
      log.add('o', idx);
      std::vector<const VisibilityMap*> group;
      for (std::size_t i : idx) group.push_back(&maps[i]);
      VisibilityMap inter;
      view::intersection(group, inter);
      return 5e5 * static_cast<double>(inter.visible_count());
    };
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same(const GroupingResult& got, const GroupingResult& want,
                 const std::string& where) {
  ASSERT_EQ(got.groups, want.groups) << where;
  EXPECT_EQ(got.plan_evals, want.plan_evals) << where;
  EXPECT_EQ(got.plan_hits, want.plan_hits) << where;
  EXPECT_EQ(got.plan_skips, want.plan_skips) << where;
  ASSERT_EQ(got.schedule.groups.size(), want.schedule.groups.size()) << where;
  for (std::size_t g = 0; g < got.schedule.groups.size(); ++g) {
    const mac::GroupPlan& a = got.schedule.groups[g];
    const mac::GroupPlan& b = want.schedule.groups[g];
    EXPECT_TRUE(same_bits(a.multicast_rate_mbps, b.multicast_rate_mbps))
        << where;
    EXPECT_TRUE(same_bits(a.group_overlap_bits, b.group_overlap_bits))
        << where;
    ASSERT_EQ(a.members.size(), b.members.size()) << where;
    for (std::size_t m = 0; m < a.members.size(); ++m) {
      EXPECT_EQ(a.members[m].user, b.members[m].user) << where;
      EXPECT_TRUE(same_bits(a.members[m].total_bits, b.members[m].total_bits))
          << where;
      EXPECT_TRUE(same_bits(a.members[m].overlap_bits,
                            b.members[m].overlap_bits))
          << where;
      EXPECT_TRUE(same_bits(a.members[m].unicast_rate_mbps,
                            b.members[m].unicast_rate_mbps))
          << where;
    }
  }
}

TEST(GroupingWorkspace, ReusedWorkspaceMatchesTheSearchBeforeIt) {
  Rng rng(2024);
  GroupingWorkspace workspace;
  std::size_t merges = 0;
  std::size_t skips = 0;
  std::size_t hits = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(2, 16));
    const Instance instance(count, rng);
    GrouperConfig config;
    config.policy = rng.chance(0.25) ? GroupingPolicy::kPairsOnly
                                     : GroupingPolicy::kGreedyIoU;
    config.min_iou = rng.chance(0.5) ? 0.0 : rng.uniform(0.1, 0.6);
    config.max_group_size = rng.chance(0.2) ? 3 : 0;
    config.target_fps = rng.chance(0.2) ? 90.0 : 30.0;
    const bool bounded = rng.chance(0.7);
    const std::string where = "trial " + std::to_string(trial);

    CallLog want_log;
    const GroupRateBoundFn want_bound =
        bounded ? instance.bound(want_log) : GroupRateBoundFn{};
    const GroupingResult want =
        before::greedy(instance.users, config, instance.rate(want_log),
                       instance.overlap(want_log), want_bound);

    // Carried from trial to trial, and a fresh workspace of the call's own.
    for (GroupingWorkspace* used : {&workspace, (GroupingWorkspace*)nullptr}) {
      CallLog got_log;
      const GroupRateBoundFn got_bound =
          bounded ? instance.bound(got_log) : GroupRateBoundFn{};
      const GroupingResult got = form_groups(
          instance.users, config, instance.rate(got_log),
          instance.overlap(got_log), got_bound, used);
      expect_same(got, want, where);
      EXPECT_EQ(got_log.calls, want_log.calls) << where;
    }
    for (const auto& g : want.groups) merges += g.size() > 1 ? 1 : 0;
    skips += want.plan_skips;
    hits += want.plan_hits;
  }
  // The sweep merged groups, skipped candidates and hit the cache.
  EXPECT_GT(merges, 50u);
  EXPECT_GT(skips, 0u);
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace volcast::core
