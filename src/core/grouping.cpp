#include "core/grouping.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
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

/// Plan times are those of an ideal MAC (GroupPlan's default overheads).
constexpr mac::MacOverheads kIdealMac{0.0, 0.0};

}  // namespace

struct GroupingWorkspace::Storage {
  /// A member list's cache entry in the Planner.
  struct Entry {
    std::size_t key_begin = 0;  // the list is keys[key_begin, + key_size)
    std::size_t key_size = 0;
    std::uint64_t hash = 0;
    double overlap_bits = 0.0;
    std::optional<double> time_lb;  // set on the first bounded lookup
    bool priced = false;
    double rate_mbps = 0.0;  // valid once priced
    double time_s = 0.0;     // valid once priced
  };
  // The Planner's cache: every cached list, concatenated in `keys`; one
  // entry per list; an open-addressing index over the entries (kFree when
  // a slot is free; a power of two in size, at most half full).
  std::vector<std::size_t> keys;
  std::vector<Entry> entries;
  std::vector<std::uint32_t> slots;
  // The greedy search: the live clusters are clusters[0, count), and a
  // merged-away cluster's vector is kept past them for the next call.
  std::vector<std::vector<std::size_t>> clusters;
  std::vector<double> cluster_time;
  std::vector<double> pair_iou;
  std::vector<std::size_t> candidate;
  std::vector<std::size_t> best_union;
};

GroupingWorkspace::GroupingWorkspace() noexcept = default;
GroupingWorkspace::~GroupingWorkspace() = default;

GroupingWorkspace::Storage& GroupingWorkspace::storage() {
  if (storage_ == nullptr) storage_ = std::make_unique<Storage>();
  return *storage_;
}

namespace {

/// Plans candidate member lists for one form_groups call. A plan is a pure
/// function of its ordered member list (the callback contract), so each
/// distinct list is priced once. The key is the list in the order the
/// search built it, never sorted: the group beam combines member beams in
/// list order, so a reordered list may price a different beam. A lookup
/// hashes the list in place; only a list seen for the first time is copied
/// into the cache.
class Planner {
  /// Member i's demand, for the mac:: plan-time functions.
  struct Demand {
    std::span<const UserState> users;
    std::span<const std::size_t> members;
    const UserState& operator()(std::size_t i) const {
      return users[members[i]];
    }
  };

 public:
  using Storage = GroupingWorkspace::Storage;
  using PlanEntry = Storage::Entry;

  Planner(std::span<const UserState> users, const GroupRateFn& group_rate,
          const GroupRateBoundFn& rate_bound,
          const OverlapBitsFn& overlap_bits, Storage& storage)
      : users_(users),
        group_rate_(group_rate),
        rate_bound_(rate_bound),
        overlap_bits_(overlap_bits),
        cache_(storage) {
    cache_.keys.clear();
    cache_.entries.clear();
    if (cache_.slots.empty()) cache_.slots.resize(kInitialSlots);
    std::fill(cache_.slots.begin(), cache_.slots.end(), kFree);
  }

  /// The MAC plan for one candidate member set.
  mac::GroupPlan plan(std::span<const std::size_t> members) {
    if (members.size() < 2) return make_plan(members, 0.0, 0.0);
    const PlanEntry& e = priced_entry(members);
    return make_plan(members, e.overlap_bits, e.rate_mbps);
  }

  /// plan(members).transmit_time_s(), without building the plan.
  double time(std::span<const std::size_t> members) {
    if (members.size() < 2)
      return mac::transmit_time_s(members.size(), Demand{users_, members},
                                  0.0, 0.0, kIdealMac);
    return priced_entry(members).time_s;
  }

  /// time(members) for a list of two or more, unless the list is unpriced
  /// and `ruled_out(t_lb)` holds for a lower bound t_lb on its time: then
  /// nothing is priced and nullopt is returned. The bound is the plan at
  /// the bounding rate or the unicast plan, whichever is faster (a plan at
  /// rate 0 falls back to unicast): plan time is monotone in the multicast
  /// rate. It is 0 without a rate bound.
  template <class RuledOut>
  std::optional<double> time_unless(std::span<const std::size_t> members,
                                    const RuledOut& ruled_out) {
    // No callback adds an entry, so `e` stays valid across them.
    PlanEntry& e = cache_.entries[entry(members)];
    if (e.priced) {
      ++hits_;
      return e.time_s;
    }
    if (!e.time_lb.has_value()) {
      e.time_lb = 0.0;
      if (rate_bound_) {
        const double rate = rate_bound_(members);
        const Demand demand{users_, members};
        e.time_lb = std::min(
            mac::transmit_time_s(members.size(), demand, e.overlap_bits, rate,
                                 kIdealMac),
            mac::unicast_time_s(members.size(), demand, kIdealMac));
      }
    }
    if (ruled_out(*e.time_lb)) {
      ++skips_;
      return std::nullopt;
    }
    price(e, members);
    if (e.time_s < *e.time_lb) throw_bound_broken(members, e);
    return e.time_s;
  }

  [[nodiscard]] std::size_t evals() const noexcept { return evals_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t skips() const noexcept { return skips_; }

 private:
  static constexpr std::uint32_t kFree = 0xffffffffu;
  static constexpr std::size_t kInitialSlots = 64;


  mac::GroupPlan make_plan(std::span<const std::size_t> members,
                           double overlap_bits, double rate_mbps) const {
    mac::GroupPlan plan;
    plan.members.reserve(members.size());
    plan.group_overlap_bits = overlap_bits;
    plan.multicast_rate_mbps = rate_mbps;
    for (std::size_t m : members) {
      const UserState& u = users_[m];
      plan.members.push_back(
          {u.user, u.total_bits, overlap_bits, u.unicast_rate_mbps});
    }
    return plan;
  }

  static std::uint64_t hash(std::span<const std::size_t> members) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::size_t m : members) {
      h ^= m;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

  [[nodiscard]] bool same_list(const PlanEntry& e,
                               std::span<const std::size_t> members) const {
    return e.key_size == members.size() &&
           std::equal(members.begin(), members.end(),
                      cache_.keys.begin() +
                          static_cast<std::ptrdiff_t>(e.key_begin));
  }

  /// The slot list `h` probes first and the next one.
  [[nodiscard]] std::size_t first_slot(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>(h) & (cache_.slots.size() - 1);
  }
  [[nodiscard]] std::size_t next_slot(std::size_t slot) const noexcept {
    return (slot + 1) & (cache_.slots.size() - 1);
  }

  /// Doubles the index once it would be more than half full.
  void grow_index() {
    cache_.slots.assign(cache_.slots.size() * 2, kFree);
    for (std::size_t i = 0; i < cache_.entries.size(); ++i) {
      std::size_t slot = first_slot(cache_.entries[i].hash);
      while (cache_.slots[slot] != kFree) slot = next_slot(slot);
      cache_.slots[slot] = static_cast<std::uint32_t>(i);
    }
  }

  /// The index of the list's cache entry, its overlap bits priced on first
  /// sight.
  std::size_t entry(std::span<const std::size_t> members) {
    const std::uint64_t h = hash(members);
    std::size_t slot = first_slot(h);
    for (; cache_.slots[slot] != kFree; slot = next_slot(slot)) {
      const PlanEntry& e = cache_.entries[cache_.slots[slot]];
      if (e.hash == h && same_list(e, members)) return cache_.slots[slot];
    }
    PlanEntry e;
    e.key_begin = cache_.keys.size();
    e.key_size = members.size();
    e.hash = h;
    e.overlap_bits = overlap_bits_(members);
    cache_.keys.insert(cache_.keys.end(), members.begin(), members.end());
    const std::size_t index = cache_.entries.size();
    cache_.entries.push_back(e);
    cache_.slots[slot] = static_cast<std::uint32_t>(index);
    if (2 * cache_.entries.size() > cache_.slots.size()) grow_index();
    return index;
  }

  /// The list's entry, priced (a cache hit when it already was).
  const PlanEntry& priced_entry(std::span<const std::size_t> members) {
    PlanEntry& e = cache_.entries[entry(members)];
    if (e.priced) {
      ++hits_;
    } else {
      price(e, members);
    }
    return e;
  }

  void price(PlanEntry& e, std::span<const std::size_t> members) {
    ++evals_;
    e.rate_mbps = group_rate_(members);
    e.time_s = mac::transmit_time_s(members.size(), Demand{users_, members},
                                    e.overlap_bits, e.rate_mbps, kIdealMac);
    e.priced = true;
  }

  [[noreturn]] void throw_bound_broken(std::span<const std::size_t> members,
                                       const PlanEntry& e) const {
    std::ostringstream what;
    what << "form_groups: rate_bound under-reports for users {";
    for (std::size_t i = 0; i < members.size(); ++i)
      what << (i == 0 ? "" : ", ") << users_[members[i]].user;
    what << "}: plan time " << e.time_s << " s is below its bound "
         << *e.time_lb << " s";
    throw std::logic_error(what.str());
  }

  std::span<const UserState> users_;
  const GroupRateFn& group_rate_;
  const GroupRateBoundFn& rate_bound_;
  const OverlapBitsFn& overlap_bits_;
  Storage& cache_;
  std::size_t evals_ = 0;
  std::size_t hits_ = 0;
  std::size_t skips_ = 0;
};

GroupingResult finalize(std::span<const UserState> users,
                        std::span<std::vector<std::size_t>> member_sets,
                        Planner& planner) {
  GroupingResult result;
  result.groups.reserve(member_sets.size());
  result.schedule.groups.reserve(member_sets.size());
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
                      std::size_t size_cap,
                      GroupingWorkspace::Storage& storage) {
  // Start from singletons; repeatedly apply the merge with the largest
  // positive airtime saving among pairs that clear the IoU bar.
  const std::size_t n = users.size();
  std::vector<std::vector<std::size_t>>& clusters = storage.clusters;
  std::vector<double>& cluster_time = storage.cluster_time;  // plan times
  if (clusters.size() < n) clusters.resize(n);
  std::size_t count = n;  // live clusters: clusters[0, count)
  cluster_time.clear();
  for (std::size_t i = 0; i < n; ++i) {
    clusters[i].assign(1, i);
    cluster_time.push_back(planner.time(clusters[i]));
  }
  const double budget_s = frame_budget_s(config);

  // Pairwise viewport IoU, once per call; a user without a map matches
  // nobody.
  std::vector<double>& pair_iou = storage.pair_iou;
  pair_iou.assign(n * n, 1.0);
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

  std::vector<std::size_t>& candidate = storage.candidate;
  std::vector<std::size_t>& best_union = storage.best_union;
  bool merged = true;
  while (merged) {
    merged = false;
    double best_saving = 0.0;
    double best_time = 0.0;
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    best_union.clear();
    for (std::size_t a = 0; a < count; ++a) {
      for (std::size_t b = a + 1; b < count; ++b) {
        candidate.assign(clusters[a].begin(), clusters[a].end());
        candidate.insert(candidate.end(), clusters[b].begin(),
                         clusters[b].end());
        if (size_cap != 0 && candidate.size() > size_cap) continue;
        if (min_pairwise_iou(candidate) < config.min_iou) continue;
        // A candidate whose time is at least t_lb fails one of the two
        // tests below when t_lb fails it: IEEE subtraction is monotone, so
        // saving <= cluster_time[a] + cluster_time[b] - t_lb. Such a
        // candidate is not priced at all.
        const std::optional<double> priced =
            planner.time_unless(candidate, [&](double t_lb) {
              return t_lb > budget_s ||
                     cluster_time[a] + cluster_time[b] - t_lb <= best_saving;
            });
        if (!priced.has_value()) continue;
        const double t_merged = *priced;
        if (t_merged > budget_s) continue;  // paper's T_m(k) <= 1/F
        const double saving = cluster_time[a] + cluster_time[b] - t_merged;
        if (saving > best_saving) {
          best_saving = saving;
          best_time = t_merged;
          best_a = a;
          best_b = b;
          best_union.assign(candidate.begin(), candidate.end());
        }
      }
    }
    if (best_saving > 0.0) {
      clusters[best_a].assign(best_union.begin(), best_union.end());
      cluster_time[best_a] = best_time;
      // Close the gap at best_b by swaps, which keep every cluster's
      // storage for the next call.
      for (std::size_t c = best_b; c + 1 < count; ++c)
        clusters[c].swap(clusters[c + 1]);
      --count;
      cluster_time.erase(cluster_time.begin() +
                         static_cast<std::ptrdiff_t>(best_b));
      merged = true;
    }
  }
  return finalize(users,
                  std::span<std::vector<std::size_t>>(clusters.data(), count),
                  planner);
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
  return finalize(users, best, planner);
}

}  // namespace

GroupingResult form_groups(std::span<const UserState> users,
                           const GrouperConfig& config,
                           const GroupRateFn& group_rate,
                           const OverlapBitsFn& overlap_bits,
                           const GroupRateBoundFn& rate_bound,
                           GroupingWorkspace* workspace) {
  if (users.empty()) return {};
  GroupingWorkspace own;
  GroupingWorkspace::Storage& storage =
      (workspace != nullptr ? *workspace : own).storage();
  Planner planner(users, group_rate, rate_bound, overlap_bits, storage);
  GroupingResult result;
  switch (config.policy) {
    case GroupingPolicy::kUnicastOnly: {
      std::vector<std::vector<std::size_t>> singletons;
      for (std::size_t i = 0; i < users.size(); ++i) singletons.push_back({i});
      result = finalize(users, singletons, planner);
      break;
    }
    case GroupingPolicy::kGreedyIoU:
      result = greedy(users, config, planner, config.max_group_size, storage);
      break;
    case GroupingPolicy::kPairsOnly:
      result = greedy(users, config, planner, 2, storage);
      break;
    case GroupingPolicy::kExhaustive:
      result = exhaustive(users, config, planner);
      break;
  }
  result.plan_evals = planner.evals();
  result.plan_hits = planner.hits();
  result.plan_skips = planner.skips();
  return result;
}

}  // namespace volcast::core
