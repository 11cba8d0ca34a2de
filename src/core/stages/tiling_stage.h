// Tiling stage: assembles each scheduled user's frame from per-cell tiles.
//
// Sits between Grouping (which fixes the tick's members and their tiers)
// and Transport (which puts the assembled bitstreams on the air). For every
// member of every scheduled group it walks the user's visible cells at its
// granted tier and counts one tile per cell. Both policies are pure
// bookkeeping into SessionState::tiles; no payload bytes are produced:
//
//  * policy "off"  — the legacy encode-per-user model: every tile a user
//    needs counts as an encode for that user.
//  * policy "shared" — encode-once, serve-many: the first touch of a
//    (frame, tier, cell) key this session *encodes* the tile; every
//    repeat — another user in the group, a later tick of the same looped
//    frame — *stitches* the already-encoded tile.
//
// Determinism: the encoded/stitched split comes from the session-local
// first-touch bitmap SessionState::tile_seen, so SessionResult is
// bit-identical at any worker_threads / parallel_sessions value.
//
// Only main-frame deliveries are assembled here; prefetch pulls the *next*
// frame, which becomes this stage's main frame one tick later, so its
// tiles are counted exactly once.
#pragma once

#include "core/stages/stage.h"

namespace volcast::core {

class TilingStage : public Stage {
 public:
  explicit TilingStage(bool shared) : shared_(shared) {}

  [[nodiscard]] StageKind kind() const noexcept override {
    return StageKind::kTiling;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return shared_ ? "shared" : "off";
  }

  void run(SessionState& state, TickContext& ctx) override;

 private:
  const bool shared_;
};

}  // namespace volcast::core
