// Per-AP link tables for tests that drive MultiApCoordinator directly, the
// way a session tick hands it its tables (tick_links).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/beam_designer.h"
#include "core/multi_ap.h"
#include "mmwave/link.h"

namespace volcast::core {

/// Every AP's link table toward `receivers`, which must outlive the
/// tables, with no bodies and the AP's codebook bound.
inline std::vector<mmwave::LinkTable> ap_tables(
    const MultiApCoordinator& coord, std::span<const geo::Vec3> receivers) {
  std::vector<mmwave::LinkTable> tables;
  for (std::size_t a = 0; a < coord.ap_count(); ++a)
    tables.push_back(BeamDesigner(coord.ap(a)).link_table(receivers, {}));
  return tables;
}

/// `tables` (indexed by AP) as the coordinator's per-AP lookup.
inline ApLinks ap_links(std::vector<mmwave::LinkTable>& tables) {
  return [&tables](std::size_t a) -> mmwave::LinkTable& { return tables[a]; };
}

}  // namespace volcast::core
