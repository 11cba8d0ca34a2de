// Multicast grouping with viewport similarity (paper Section 4.2).
//
// Given every user's (predicted) visibility map, demand and link rates, the
// grouper partitions users into multicast groups so that the frame-interval
// constraint T_m(k) <= 1/F holds and total airtime is minimized. The paper
// proposes grouping users "with high viewport similarity"; this module
// provides that greedy IoU policy plus an exhaustive optimum (tractable for
// the <= 8-user sessions of the paper) and baselines for ablation.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mac/schedule.h"
#include "viewport/visibility.h"

namespace volcast::core {

/// Grouping policies.
enum class GroupingPolicy {
  kUnicastOnly,   // baseline: no multicast at all
  kGreedyIoU,     // the paper's proposal: merge by viewport similarity
  kPairsOnly,     // greedy, but groups are capped at two members
  kExhaustive,    // optimal partition by airtime (Bell-number search)
};

[[nodiscard]] const char* to_string(GroupingPolicy policy) noexcept;

/// Everything the grouper knows about one user this frame interval.
struct UserState {
  std::size_t user = 0;
  const view::VisibilityMap* visibility = nullptr;  // predicted map
  double total_bits = 0.0;                          // S_i at the chosen tier
  double unicast_rate_mbps = 0.0;                   // r_i
};

/// Callback computing a group's multicast behaviour: given member indices
/// (into the UserState span), returns the multicast rate r_m in Mbps (the
/// lowest common MCS under the group's beam) — 0 when the group cannot be
/// served. Provided by the beam designer.
using GroupRateFn =
    std::function<double(std::span<const std::size_t> members)>;

/// Callback bounding GroupRateFn from above without designing a beam:
/// for every member list it returns at least what group_rate would.
using GroupRateBoundFn =
    std::function<double(std::span<const std::size_t> members)>;

/// Callback computing the overlapped bits S_m(k) for a member set.
using OverlapBitsFn =
    std::function<double(std::span<const std::size_t> members)>;

/// Grouper configuration.
struct GrouperConfig {
  GroupingPolicy policy = GroupingPolicy::kGreedyIoU;
  double target_fps = 30.0;
  /// Minimum pairwise IoU for the greedy policy to consider a merge.
  double min_iou = 0.3;
  /// Upper bound on group size (0 = unlimited).
  std::size_t max_group_size = 0;
};

/// Result: a partition of the users plus its MAC schedule.
struct GroupingResult {
  std::vector<std::vector<std::size_t>> groups;  // user ids per group
  mac::FrameSchedule schedule;
  /// Search effort over multi-member candidate lists: lists priced (one
  /// group_rate call each), plans served from the cache, and candidates
  /// left unpriced because their rate bound ruled them out.
  std::size_t plan_evals = 0;
  std::size_t plan_hits = 0;
  std::size_t plan_skips = 0;
};

/// Storage form_groups reuses from one call to the next: its plan cache and
/// the greedy search's buffers. A default-constructed workspace holds
/// nothing and allocates nothing; the first call grows it. No result
/// depends on what an earlier call left in it.
class GroupingWorkspace {
 public:
  struct Storage;  // defined in grouping.cpp

  GroupingWorkspace() noexcept;
  ~GroupingWorkspace();

  /// The storage, created on first use.
  [[nodiscard]] Storage& storage();

 private:
  std::unique_ptr<Storage> storage_;
};

/// Forms multicast groups over `users`.
/// `group_rate`, `rate_bound` and `overlap_bits` are consulted for
/// candidate groups of two or more members, each distinct ordered member
/// list at most once per call: all three must be pure functions of that
/// list for the duration of the call. The list is passed in the order the
/// search built it (it is not sorted), so order-sensitive callbacks see
/// exactly what an uncached search would pass them.
///
/// Every returned group of two or more members was priced by `group_rate`
/// during the call, as exactly the list it is returned as: each group is
/// sorted by index and planned before it is returned, which prices it
/// unless the search already had. Its ids are users[i].user for that list,
/// in that order. So state a caller keeps per priced list (a group's beam)
/// can be read back for every returned group.
///
/// `rate_bound` (optional) must never return less than `group_rate` for
/// the same list. The greedy policies use it to bound a candidate's plan
/// time from below and skip pricing candidates that bound proves could not
/// be merged, so `group_rate` may never be called for such lists; the
/// result is the one the search without the bound returns. Without it the
/// bound is 0, which rules out less. Throws std::logic_error when a priced
/// plan comes in below its bound (a `rate_bound` that under-reports).
///
/// `workspace` (optional) lends the call its storage, so that a caller
/// grouping every frame stops allocating for the search once the
/// workspace has grown; without it the call uses storage of its own.
[[nodiscard]] GroupingResult form_groups(
    std::span<const UserState> users, const GrouperConfig& config,
    const GroupRateFn& group_rate, const OverlapBitsFn& overlap_bits,
    const GroupRateBoundFn& rate_bound = {},
    GroupingWorkspace* workspace = nullptr);

}  // namespace volcast::core
