// The union of visibility maps, for tests that check the set operations of
// viewport/similarity.h against it (no program path needs a union).
#pragma once

#include <algorithm>
#include <span>

#include "viewport/visibility.h"

namespace volcast::view {

/// Cells visible to at least one user, each with the largest LoD any map
/// gives it.
inline VisibilityMap union_of(std::span<const VisibilityMap> maps) {
  if (maps.empty()) return VisibilityMap{};
  const std::size_t cells = maps.front().cell_count();
  VisibilityMap out(cells);
  for (vv::CellId c = 0; c < cells; ++c) {
    double best = 0.0;
    for (const VisibilityMap& m : maps) best = std::max(best, m.lod(c));
    if (best > 0.0) out.set(c, best);
  }
  return out;
}

}  // namespace volcast::view
