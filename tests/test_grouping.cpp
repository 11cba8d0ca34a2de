#include "core/grouping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "viewport/similarity.h"

namespace volcast::core {
namespace {

using view::VisibilityMap;

/// Builds maps where users i and j overlap in `shared` cells out of 10.
struct Fixture {
  std::vector<VisibilityMap> maps;
  std::vector<UserState> users;

  explicit Fixture(const std::vector<std::pair<int, int>>& ranges,
                   double rate = 1000.0) {
    maps.reserve(ranges.size());
    for (const auto& [lo, hi] : ranges) {
      VisibilityMap m(12);
      for (int c = lo; c <= hi; ++c) m.set(static_cast<vv::CellId>(c));
      maps.push_back(m);
    }
    for (std::size_t u = 0; u < maps.size(); ++u)
      users.push_back({u, &maps[u], 10e6, rate});
  }

  [[nodiscard]] OverlapBitsFn overlap_fn() const {
    return [this](std::span<const std::size_t> idx) {
      std::vector<const VisibilityMap*> group;
      for (auto i : idx) group.push_back(&maps[i]);
      VisibilityMap inter;
      view::intersection(group, inter);
      return 1e6 * static_cast<double>(inter.visible_count());
    };
  }
};

GroupRateFn fixed_rate(double mbps) {
  return [mbps](std::span<const std::size_t>) { return mbps; };
}

std::multiset<std::multiset<std::size_t>> as_sets(const GroupingResult& r) {
  std::multiset<std::multiset<std::size_t>> out;
  for (const auto& g : r.groups)
    out.insert(std::multiset<std::size_t>(g.begin(), g.end()));
  return out;
}

TEST(Grouping, EmptyInput) {
  GrouperConfig config;
  const auto result =
      form_groups({}, config, fixed_rate(1000), [](auto) { return 0.0; });
  EXPECT_TRUE(result.groups.empty());
}

TEST(Grouping, UnicastOnlyKeepsSingletons) {
  Fixture f({{0, 9}, {0, 9}, {0, 9}});
  GrouperConfig config;
  config.policy = GroupingPolicy::kUnicastOnly;
  const auto result =
      form_groups(f.users, config, fixed_rate(900), f.overlap_fn());
  EXPECT_EQ(result.groups.size(), 3u);
  for (const auto& g : result.groups) EXPECT_EQ(g.size(), 1u);
}

TEST(Grouping, GreedyMergesIdenticalViewports) {
  Fixture f({{0, 9}, {0, 9}});
  GrouperConfig config;
  const auto result =
      form_groups(f.users, config, fixed_rate(900), f.overlap_fn());
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].size(), 2u);
}

TEST(Grouping, GreedyRespectsIouBar) {
  // Overlap 1 cell of 10 each: IoU = 1/19 << 0.3.
  Fixture f({{0, 9}, {9, 11}});
  GrouperConfig config;
  config.min_iou = 0.3;
  const auto result =
      form_groups(f.users, config, fixed_rate(2000), f.overlap_fn());
  EXPECT_EQ(result.groups.size(), 2u);
}

TEST(Grouping, GreedySkipsLossyMulticast) {
  // Identical viewports but terrible multicast rate: stay unicast.
  Fixture f({{0, 9}, {0, 9}});
  GrouperConfig config;
  const auto result =
      form_groups(f.users, config, fixed_rate(100), f.overlap_fn());
  EXPECT_EQ(result.groups.size(), 2u);
}

TEST(Grouping, FrameBudgetBlocksSlowGroups) {
  // Multicast is nominally better but T_m exceeds 1/F.
  Fixture f({{0, 9}, {0, 9}}, 400.0);
  GrouperConfig config;
  config.target_fps = 120.0;  // 8.3 ms budget; 10 Mbit needs > 25 ms
  const auto result =
      form_groups(f.users, config, fixed_rate(380), f.overlap_fn());
  EXPECT_EQ(result.groups.size(), 2u);
}

TEST(Grouping, PairsOnlyCapsGroupSize) {
  Fixture f({{0, 9}, {0, 9}, {0, 9}, {0, 9}});
  GrouperConfig config;
  config.policy = GroupingPolicy::kPairsOnly;
  const auto result =
      form_groups(f.users, config, fixed_rate(900), f.overlap_fn());
  for (const auto& g : result.groups) EXPECT_LE(g.size(), 2u);
  EXPECT_EQ(result.groups.size(), 2u);
}

TEST(Grouping, MaxGroupSizeHonoredByGreedy) {
  Fixture f({{0, 9}, {0, 9}, {0, 9}, {0, 9}});
  GrouperConfig config;
  config.max_group_size = 3;
  const auto result =
      form_groups(f.users, config, fixed_rate(900), f.overlap_fn());
  for (const auto& g : result.groups) EXPECT_LE(g.size(), 3u);
}

TEST(Grouping, ExhaustiveMatchesGreedyOnClearCase) {
  Fixture f({{0, 6}, {0, 6}, {3, 11}, {3, 11}});
  GrouperConfig greedy_config;
  GrouperConfig ex_config;
  ex_config.policy = GroupingPolicy::kExhaustive;
  const auto greedy =
      form_groups(f.users, greedy_config, fixed_rate(900), f.overlap_fn());
  const auto exhaustive =
      form_groups(f.users, ex_config, fixed_rate(900), f.overlap_fn());
  EXPECT_EQ(as_sets(greedy), as_sets(exhaustive));
}

TEST(Grouping, ExhaustiveNeverWorseThanGreedy) {
  Fixture f({{0, 5}, {2, 8}, {4, 10}, {6, 11}, {0, 11}});
  GrouperConfig greedy_config;
  greedy_config.min_iou = 0.0;
  GrouperConfig ex_config;
  ex_config.policy = GroupingPolicy::kExhaustive;
  const auto greedy =
      form_groups(f.users, greedy_config, fixed_rate(700), f.overlap_fn());
  const auto exhaustive =
      form_groups(f.users, ex_config, fixed_rate(700), f.overlap_fn());
  EXPECT_LE(exhaustive.schedule.airtime_s(),
            greedy.schedule.airtime_s() + 1e-12);
}

TEST(Grouping, ExhaustiveRejectsTooManyUsers) {
  std::vector<VisibilityMap> maps(11, VisibilityMap(4));
  std::vector<UserState> users;
  for (std::size_t u = 0; u < 11; ++u)
    users.push_back({u, &maps[u], 1e6, 1000.0});
  GrouperConfig config;
  config.policy = GroupingPolicy::kExhaustive;
  EXPECT_THROW(
      (void)form_groups(users, config, fixed_rate(900),
                        [](auto) { return 0.0; }),
      std::invalid_argument);
}

TEST(Grouping, PartitionCoversAllUsersExactlyOnce) {
  Fixture f({{0, 4}, {1, 6}, {3, 9}, {5, 11}, {0, 11}, {2, 7}});
  for (auto policy : {GroupingPolicy::kUnicastOnly, GroupingPolicy::kGreedyIoU,
                      GroupingPolicy::kPairsOnly,
                      GroupingPolicy::kExhaustive}) {
    GrouperConfig config;
    config.policy = policy;
    const auto result =
        form_groups(f.users, config, fixed_rate(800), f.overlap_fn());
    std::multiset<std::size_t> all;
    for (const auto& g : result.groups) all.insert(g.begin(), g.end());
    EXPECT_EQ(all.size(), f.users.size()) << to_string(policy);
    for (std::size_t u = 0; u < f.users.size(); ++u)
      EXPECT_EQ(all.count(u), 1u) << to_string(policy);
  }
}

TEST(Grouping, ScheduleGroupsAlignWithGroupIds) {
  Fixture f({{0, 9}, {0, 9}, {10, 11}});
  GrouperConfig config;
  const auto result =
      form_groups(f.users, config, fixed_rate(900), f.overlap_fn());
  ASSERT_EQ(result.groups.size(), result.schedule.groups.size());
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    EXPECT_EQ(result.groups[g].size(),
              result.schedule.groups[g].members.size());
  }
}

TEST(Grouping, PolicyNames) {
  EXPECT_STREQ(to_string(GroupingPolicy::kUnicastOnly), "unicast-only");
  EXPECT_STREQ(to_string(GroupingPolicy::kGreedyIoU), "greedy-iou");
  EXPECT_STREQ(to_string(GroupingPolicy::kPairsOnly), "pairs-only");
  EXPECT_STREQ(to_string(GroupingPolicy::kExhaustive), "exhaustive");
}

class GroupingRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(GroupingRateSweep, MulticastAdoptionMonotoneInRate) {
  // Property: as the multicast rate improves, greedy merges at least as
  // much (group count never increases).
  Fixture f({{0, 9}, {0, 9}, {0, 9}});
  GrouperConfig config;
  const auto at_rate =
      form_groups(f.users, config, fixed_rate(GetParam()), f.overlap_fn());
  const auto at_better = form_groups(f.users, config,
                                     fixed_rate(GetParam() * 1.5),
                                     f.overlap_fn());
  EXPECT_LE(at_better.groups.size(), at_rate.groups.size());
}

INSTANTIATE_TEST_SUITE_P(Rates, GroupingRateSweep,
                         ::testing::Values(200.0, 400.0, 600.0, 800.0,
                                           1200.0));

// ---- plan cache -------------------------------------------------------

/// The search as it ran before plans were cached: every candidate is
/// re-planned each time the search looks at it, finalize plans again.
mac::GroupPlan reference_plan(std::span<const UserState> users,
                              std::span<const std::size_t> members,
                              const GroupRateFn& rate,
                              const OverlapBitsFn& overlap) {
  mac::GroupPlan plan;
  if (members.size() > 1) {
    plan.group_overlap_bits = overlap(members);
    plan.multicast_rate_mbps = rate(members);
  }
  for (std::size_t m : members)
    plan.members.push_back({users[m].user, users[m].total_bits,
                            plan.group_overlap_bits,
                            users[m].unicast_rate_mbps});
  return plan;
}

GroupingResult reference_groups(std::span<const UserState> users,
                                const GrouperConfig& config,
                                const GroupRateFn& rate,
                                const OverlapBitsFn& overlap) {
  const double budget = 1.0 / config.target_fps;
  const auto time = [&](const std::vector<std::size_t>& members) {
    return reference_plan(users, members, rate, overlap).transmit_time_s();
  };
  std::vector<std::vector<std::size_t>> sets;
  if (config.policy == GroupingPolicy::kExhaustive) {
    std::vector<std::vector<std::size_t>> current;
    double best_time = std::numeric_limits<double>::infinity();
    std::function<void(std::size_t)> recurse = [&](std::size_t next) {
      if (next == users.size()) {
        double t = 0.0;
        for (const auto& block : current) {
          const double bt = time(block);
          t += bt > budget && block.size() > 1 ? 1e6 + bt : bt;
        }
        if (t < best_time) {
          best_time = t;
          sets = current;
        }
        return;
      }
      for (std::size_t b = 0, count = current.size(); b < count; ++b) {
        current[b].push_back(next);
        recurse(next + 1);
        current[b].pop_back();
      }
      current.push_back({next});
      recurse(next + 1);
      current.pop_back();
    };
    recurse(0);
  } else {
    const std::size_t cap =
        config.policy == GroupingPolicy::kPairsOnly ? 2 : 0;
    for (std::size_t i = 0; i < users.size(); ++i) sets.push_back({i});
    for (bool merged = true; merged;) {
      merged = false;
      double best_saving = 0.0;
      std::size_t best_a = 0;
      std::size_t best_b = 0;
      std::vector<std::size_t> best_union;
      for (std::size_t a = 0; a < sets.size(); ++a) {
        for (std::size_t b = a + 1; b < sets.size(); ++b) {
          std::vector<std::size_t> cand = sets[a];
          cand.insert(cand.end(), sets[b].begin(), sets[b].end());
          if (cap != 0 && cand.size() > cap) continue;
          double lowest = 1.0;
          for (std::size_t i = 0; i < cand.size(); ++i)
            for (std::size_t j = i + 1; j < cand.size(); ++j)
              lowest = std::min(lowest, view::iou(*users[cand[i]].visibility,
                                                  *users[cand[j]].visibility));
          if (lowest < config.min_iou) continue;
          const double t = time(cand);
          if (t > budget) continue;
          const double saving = time(sets[a]) + time(sets[b]) - t;
          if (saving > best_saving) {
            best_saving = saving;
            best_a = a;
            best_b = b;
            best_union = std::move(cand);
          }
        }
      }
      if (best_saving > 0.0) {
        sets[best_a] = std::move(best_union);
        sets.erase(sets.begin() + static_cast<std::ptrdiff_t>(best_b));
        merged = true;
      }
    }
  }
  GroupingResult result;
  for (auto& set : sets) {
    std::sort(set.begin(), set.end());
    result.schedule.groups.push_back(
        reference_plan(users, set, rate, overlap));
    std::vector<std::size_t> ids;
    for (std::size_t m : set) ids.push_back(users[m].user);
    result.groups.push_back(std::move(ids));
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_result(const GroupingResult& got,
                        const GroupingResult& want) {
  ASSERT_EQ(got.groups, want.groups);
  ASSERT_EQ(got.schedule.groups.size(), want.schedule.groups.size());
  for (std::size_t g = 0; g < got.schedule.groups.size(); ++g) {
    const mac::GroupPlan& a = got.schedule.groups[g];
    const mac::GroupPlan& b = want.schedule.groups[g];
    EXPECT_TRUE(same_bits(a.multicast_rate_mbps, b.multicast_rate_mbps));
    EXPECT_TRUE(same_bits(a.group_overlap_bits, b.group_overlap_bits));
    ASSERT_EQ(a.members.size(), b.members.size());
    for (std::size_t m = 0; m < a.members.size(); ++m) {
      EXPECT_EQ(a.members[m].user, b.members[m].user);
      EXPECT_TRUE(same_bits(a.members[m].total_bits, b.members[m].total_bits));
      EXPECT_TRUE(same_bits(a.members[m].unicast_rate_mbps,
                            b.members[m].unicast_rate_mbps));
    }
  }
}

/// Random viewports over 16 cells; demand and link rates vary per user.
struct RandomAudience {
  std::vector<VisibilityMap> maps;
  std::vector<UserState> users;

  RandomAudience(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    maps.assign(count, VisibilityMap(16));
    for (auto& m : maps) {
      const auto lo = static_cast<vv::CellId>(rng.uniform_int(0, 6));
      const auto hi = static_cast<vv::CellId>(rng.uniform_int(9, 15));
      for (vv::CellId c = lo; c <= hi; ++c)
        if (rng.chance(0.85)) m.set(c, rng.uniform(0.3, 1.0));
    }
    for (std::size_t u = 0; u < count; ++u)
      users.push_back({u, &maps[u], rng.uniform(4e6, 12e6),
                       rng.uniform(700.0, 1600.0)});
  }
};

/// An order-sensitive group rate (it depends on which member comes first,
/// as a beam combined in member order does) that records every call.
struct CountingRate {
  std::map<std::vector<std::size_t>, int> calls;

  [[nodiscard]] GroupRateFn fn() {
    return [this](std::span<const std::size_t> idx) {
      ++calls[std::vector<std::size_t>(idx.begin(), idx.end())];
      double rate = 1400.0 - 35.0 * static_cast<double>(idx.size());
      rate -= 3.0 * static_cast<double>(idx.front());
      for (std::size_t i = 1; i < idx.size(); ++i)
        rate -= 0.25 * static_cast<double>(idx[i] * i);
      return rate;
    };
  }
};

OverlapBitsFn overlap_of(const std::vector<VisibilityMap>& maps) {
  return [&maps](std::span<const std::size_t> idx) {
    std::vector<const VisibilityMap*> group;
    for (std::size_t i : idx) group.push_back(&maps[i]);
    VisibilityMap inter;
    view::intersection(group, inter);
    return 6e5 * static_cast<double>(inter.visible_count());
  };
}

/// form_groups' contract: every returned group of two or more members was
/// priced during the call, as exactly the list it is returned as.
void expect_groups_priced(const GroupingResult& got,
                          std::span<const UserState> users,
                          const CountingRate& rate, std::uint64_t seed) {
  for (const auto& group : got.groups) {
    if (group.size() < 2) continue;
    std::vector<std::size_t> idx;
    for (const std::size_t id : group) {
      const auto it =
          std::find_if(users.begin(), users.end(),
                       [id](const UserState& u) { return u.user == id; });
      ASSERT_NE(it, users.end());
      idx.push_back(static_cast<std::size_t>(it - users.begin()));
    }
    EXPECT_EQ(rate.calls.count(idx), 1u)
        << "seed " << seed << ": a returned group of " << group.size()
        << " was never priced in its returned order";
  }
}

class PlanCache : public ::testing::TestWithParam<GroupingPolicy> {};

TEST_P(PlanCache, EachOrderedMemberListEvaluatedOnceAndResultUnchanged) {
  const GroupingPolicy policy = GetParam();
  const std::size_t count = policy == GroupingPolicy::kExhaustive ? 7 : 14;
  std::size_t merged_runs = 0;
  std::size_t hits = 0;
  std::size_t cached_calls = 0;
  std::size_t uncached_calls = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomAudience audience(count, seed);
    GrouperConfig config;
    config.policy = policy;
    config.min_iou = seed % 3 == 0 ? 0.0 : 0.3;
    CountingRate counting;
    const GroupingResult got = form_groups(audience.users, config,
                                           counting.fn(),
                                           overlap_of(audience.maps));
    for (const auto& [members, n] : counting.calls)
      EXPECT_EQ(n, 1) << "seed " << seed << ": a member list of size "
                      << members.size() << " was planned " << n << " times";
    EXPECT_EQ(got.plan_evals, counting.calls.size());
    expect_groups_priced(got, audience.users, counting, seed);

    CountingRate uncached;
    const GroupingResult want = reference_groups(
        audience.users, config, uncached.fn(), overlap_of(audience.maps));
    expect_same_result(got, want);
    // The cache saves evaluations, it never adds a member list.
    for (const auto& entry : counting.calls)
      EXPECT_EQ(uncached.calls.count(entry.first), 1u);
    hits += got.plan_hits;
    cached_calls += counting.calls.size();
    for (const auto& entry : uncached.calls) uncached_calls += entry.second;
    for (const auto& g : got.groups) merged_runs += g.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(merged_runs, 0u);  // the sweep forms real multicast groups
  EXPECT_GT(hits, 0u);
  EXPECT_LT(cached_calls, uncached_calls);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlanCache,
    ::testing::Values(GroupingPolicy::kGreedyIoU, GroupingPolicy::kPairsOnly,
                      GroupingPolicy::kExhaustive),
    [](const ::testing::TestParamInfo<GroupingPolicy>& info) {
      switch (info.param) {
        case GroupingPolicy::kGreedyIoU: return std::string("Greedy");
        case GroupingPolicy::kPairsOnly: return std::string("PairsOnly");
        case GroupingPolicy::kExhaustive: return std::string("Exhaustive");
        default: return std::string("Other");
      }
    });

// ---- rate-bound skip ---------------------------------------------------

/// An exact upper bound of CountingRate's rate for every order of the same
/// list: the first member's index is at least the smallest one, and the
/// later terms only subtract.
GroupRateBoundFn counting_rate_bound(std::size_t* calls = nullptr) {
  return [calls](std::span<const std::size_t> idx) {
    if (calls != nullptr) ++*calls;
    const double lowest =
        static_cast<double>(*std::min_element(idx.begin(), idx.end()));
    return 1400.0 - 35.0 * static_cast<double>(idx.size()) - 3.0 * lowest;
  };
}

class RateBound : public ::testing::TestWithParam<GroupingPolicy> {};

TEST_P(RateBound, SkipsCandidatesAndKeepsTheResult) {
  const GroupingPolicy policy = GetParam();
  std::size_t skips = 0;
  std::size_t bounded_evals = 0;
  std::size_t unbounded_evals = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const double min_iou : {0.0, 0.3}) {
      RandomAudience audience(14, seed);
      GrouperConfig config;
      config.policy = policy;
      config.min_iou = min_iou;
      CountingRate bounded;
      const GroupingResult got =
          form_groups(audience.users, config, bounded.fn(),
                      overlap_of(audience.maps), counting_rate_bound());
      for (const auto& [members, n] : bounded.calls)
        EXPECT_EQ(n, 1) << "seed " << seed << ": a member list was priced "
                        << n << " times";
      EXPECT_EQ(got.plan_evals, bounded.calls.size());
      expect_groups_priced(got, audience.users, bounded, seed);

      CountingRate unbounded;
      const GroupingResult plain = form_groups(
          audience.users, config, unbounded.fn(), overlap_of(audience.maps));
      EXPECT_LE(got.plan_evals, plain.plan_evals)
          << "seed " << seed << " min_iou " << min_iou;
      // The bound only removes member lists from what is priced.
      for (const auto& entry : bounded.calls)
        EXPECT_EQ(unbounded.calls.count(entry.first), 1u);

      CountingRate reference;
      expect_same_result(got, reference_groups(audience.users, config,
                                               reference.fn(),
                                               overlap_of(audience.maps)));
      skips += got.plan_skips;
      bounded_evals += got.plan_evals;
      unbounded_evals += plain.plan_evals;
    }
  }
  EXPECT_GT(skips, 0u);
  EXPECT_LT(bounded_evals, unbounded_evals);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RateBound,
    ::testing::Values(GroupingPolicy::kGreedyIoU, GroupingPolicy::kPairsOnly),
    [](const ::testing::TestParamInfo<GroupingPolicy>& info) {
      return info.param == GroupingPolicy::kGreedyIoU
                 ? std::string("Greedy")
                 : std::string("PairsOnly");
    });

TEST(RateBound, UnderReportingBoundThrows) {
  // A bound at half the real rate puts the bound above the priced time of
  // the first merge the search prices.
  Fixture f({{0, 9}, {0, 9}});
  GrouperConfig config;
  const GroupRateBoundFn half = [](std::span<const std::size_t>) {
    return 900.0;
  };
  EXPECT_THROW((void)form_groups(f.users, config, fixed_rate(1800),
                                 f.overlap_fn(), half),
               std::logic_error);
  // The honest bound keeps the same merge.
  const GroupRateBoundFn honest = [](std::span<const std::size_t>) {
    return 1800.0;
  };
  const auto result =
      form_groups(f.users, config, fixed_rate(1800), f.overlap_fn(), honest);
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.plan_skips, 0u);
}

TEST(RateBound, UnusedByUnicastOnlyAndExhaustive) {
  RandomAudience audience(6, 5);
  for (const GroupingPolicy policy :
       {GroupingPolicy::kUnicastOnly, GroupingPolicy::kExhaustive}) {
    GrouperConfig config;
    config.policy = policy;
    std::size_t bound_calls = 0;
    CountingRate counting;
    const auto result =
        form_groups(audience.users, config, counting.fn(),
                    overlap_of(audience.maps), counting_rate_bound(&bound_calls));
    EXPECT_EQ(bound_calls, 0u) << to_string(policy);
    EXPECT_EQ(result.plan_skips, 0u) << to_string(policy);
  }
}

TEST(PlanCache, UnicastOnlyPlansNothing) {
  RandomAudience audience(6, 3);
  GrouperConfig config;
  config.policy = GroupingPolicy::kUnicastOnly;
  CountingRate counting;
  const auto result = form_groups(audience.users, config, counting.fn(),
                                  overlap_of(audience.maps));
  EXPECT_TRUE(counting.calls.empty());
  EXPECT_EQ(result.plan_evals, 0u);
  EXPECT_EQ(result.plan_hits, 0u);
}

}  // namespace
}  // namespace volcast::core
