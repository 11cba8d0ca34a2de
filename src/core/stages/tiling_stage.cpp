#include "core/stages/tiling_stage.h"

#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"

namespace volcast::core {

void TilingStage::run(SessionState& state, TickContext& ctx) {
  const std::size_t frame = ctx.frame;
  obs::Telemetry* tel = state.tel;
  obs::Span span = ctx.span(obs::Stage::kTile);
  const vv::TileReport before = state.tiles;
  std::uint64_t deferred = 0;

  const std::size_t tier_count = state.store.tier_count();
  const std::size_t cell_count = state.grid.cell_count();
  if (shared_ && state.tile_seen.empty())
    state.tile_seen.assign(state.config.video_frames * tier_count * cell_count,
                           0);

  for (std::size_t a = 0; a < state.coordinator.ap_count(); ++a) {
    if (!ctx.ap_plans[a].active) continue;
    for (const mac::GroupPlan& plan :
         ctx.ap_plans[a].grouping.schedule.groups) {
      for (const mac::UserDemand& demand : plan.members) {
        const std::size_t u = demand.user;
        const std::size_t tier = state.users[u].tier;
        const auto& vis = ctx.prediction.visibility[u];
        for (vv::CellId cell = 0; cell < cell_count; ++cell) {
          const double lod = vis.lod(cell);
          if (lod <= state.shed.min_lod) continue;
          const std::size_t bytes = state.store.cell_bytes(frame, tier, cell);
          if (bytes == 0) continue;
          ++state.tiles.requests;
          if (!shared_) {
            // Legacy model: every user encodes its own copy of the cell.
            ++state.tiles.encoded_tiles;
            state.tiles.encoded_bytes += bytes;
            continue;
          }
          const std::size_t seen_at =
              (frame * tier_count + tier) * cell_count + cell;
          if (!state.tile_seen[seen_at]) {
            // Brownout deferral: a *new* encode for a faint cell is
            // non-critical work — push it to a calmer tick. The bitmap is
            // left clear so the first post-brownout request pays the
            // encode; already-encoded tiles keep stitching below.
            if (lod <= state.shed.defer_lod) {
              ++deferred;
              continue;
            }
            state.tile_seen[seen_at] = 1;
            ++state.tiles.encoded_tiles;
            state.tiles.encoded_bytes += bytes;
          } else {
            ++state.tiles.stitched_tiles;
            state.tiles.stitched_bytes += bytes;
          }
        }
      }
    }
  }

  const std::uint64_t requests = state.tiles.requests - before.requests;
  span.add_cost(requests);
  if (deferred > 0) {
    state.oreport.deferred_tiles += deferred;
    if (tel != nullptr)
      tel->metrics().counter("overload.deferred_tiles").add(deferred);
  }
  if (tel != nullptr && requests > 0) {
    obs::MetricRegistry& metrics = tel->metrics();
    metrics.counter("tile.requests").add(requests);
    metrics.counter("tile.encoded_tiles")
        .add(state.tiles.encoded_tiles - before.encoded_tiles);
    metrics.counter("tile.stitched_tiles")
        .add(state.tiles.stitched_tiles - before.stitched_tiles);
    metrics.counter("tile.encoded_bytes")
        .add(state.tiles.encoded_bytes - before.encoded_bytes);
    metrics.counter("tile.stitched_bytes")
        .add(state.tiles.stitched_bytes - before.stitched_bytes);
    metrics.gauge("tile.encode_bytes_per_user")
        .set(static_cast<double>(state.tiles.encoded_bytes) /
             static_cast<double>(state.user_count()));
  }
}

}  // namespace volcast::core
