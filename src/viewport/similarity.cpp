#include "viewport/similarity.h"

#include <algorithm>

namespace volcast::view {

double iou(const VisibilityMap& a, const VisibilityMap& b) {
  const VisibilityMap* pair[] = {&a, &b};
  return group_iou(pair);
}

double group_iou(std::span<const VisibilityMap* const> maps) {
  if (maps.empty()) return 1.0;
  const std::size_t cells = maps.front()->cell_count();
  std::size_t inter = 0;
  std::size_t uni = 0;
  for (vv::CellId c = 0; c < cells; ++c) {
    bool in_all = true;
    bool in_any = false;
    for (const VisibilityMap* m : maps) {
      const bool v = m->visible(c);
      in_all = in_all && v;
      in_any = in_any || v;
    }
    inter += in_all ? 1 : 0;
    uni += in_any ? 1 : 0;
  }
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

void intersection(std::span<const VisibilityMap* const> maps,
                  VisibilityMap& out) {
  const std::size_t cells = maps.empty() ? 0 : maps.front()->cell_count();
  out.clear(cells);
  for (vv::CellId c = 0; c < cells; ++c) {
    bool in_all = true;
    double best = 0.0;
    for (const VisibilityMap* m : maps) {
      if (!m->visible(c)) {
        in_all = false;
        break;
      }
      best = std::max(best, m->lod(c));
    }
    if (in_all) out.set(c, best);
  }
}

}  // namespace volcast::view
