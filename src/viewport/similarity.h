// Inter-user viewport similarity (paper Section 3, Fig. 2): the intersection
// over union of users' visibility maps, the quantity that decides whether
// multicast can pay off.
#pragma once

#include <span>

#include "viewport/visibility.h"

namespace volcast::view {

/// IoU of two visibility maps (cells with any positive LoD count as
/// visible). Returns 1.0 when both maps are empty — two users who need
/// nothing trivially agree.
[[nodiscard]] double iou(const VisibilityMap& a, const VisibilityMap& b);

/// IoU over an arbitrary group: |intersection of all| / |union of all|.
/// Mirrors the paper's group-size analysis (Fig. 2b, HM(3) curve).
[[nodiscard]] double group_iou(std::span<const VisibilityMap* const> maps);

/// Writes the cells visible to every user of the group (the multicast
/// payload of Fig. 1: "overlapped cells") into `out`, reusing its storage,
/// with the group-maximum LoD per cell so the multicast copy satisfies the
/// most demanding member.
void intersection(std::span<const VisibilityMap* const> maps,
                  VisibilityMap& out);

}  // namespace volcast::view
