// Per-tick data flowing through the staged pipeline.
//
// Each tick the driver (session.cpp) builds one TickContext and hands it
// through the stages in order; every field below but the link state is
// produced by exactly one stage and consumed by later ones:
//
//   driver       -> tick / t / frame, fault availability flags
//   Prediction   -> poses, body capsules, shadowing, joint prediction
//   Beam         -> AP assignment refresh, unicast link state (rate/rss)
//   Adaptation   -> per-user tier decisions (written into SessionState)
//   Mitigation   -> prefetch credit / reflection overrides (SessionState)
//   Grouping     -> per-AP multicast plan (ApPlan)
//   Transport    -> deliveries, app-layer throughput samples
//
// The link state (link_bodies, present_mask, links) belongs to no stage:
// tick_links() builds it on the first use in the tick, whichever stage
// that is (Beam, in every registered pipeline), and every later stage
// reads the same tables. The tables themselves live in SessionState and
// outlive the tick; `links` only marks the ones bound to this tick's
// receivers and bodies. See DESIGN.md, "Tick link state".
#pragma once

#include <cstdint>
#include <vector>

#include "core/grouping.h"
#include "core/session.h"
#include "geometry/obstacle.h"
#include "geometry/pose.h"
#include "mmwave/link.h"
#include "obs/telemetry.h"
#include "viewport/joint_predictor.h"

namespace volcast::core {

/// Per-AP product of the grouping stage, consumed by transport.
struct ApPlan {
  /// False when the AP scheduled nothing this tick (down, no members, or
  /// its round was dropped over backlog): transport skips it entirely.
  bool active = false;
  std::vector<std::size_t> members;  // user ids still needing this frame
  GroupingResult grouping;
};

struct TickContext {
  std::size_t tick = 0;
  std::uint32_t tick32 = 0;
  double t = 0.0;
  std::size_t frame = 0;
  /// The frame the prediction horizon lands on (what adaptation budgets
  /// for); set by the prediction stage.
  std::size_t target_frame = 0;
  /// An AP went dark or came back this tick (forces AP reassignment).
  bool availability_changed = false;

  // Products of the prediction stage (slot per user).
  std::vector<geo::Pose> local_poses;
  std::vector<geo::Vec3> room_pos;
  std::vector<geo::BodyObstacle> bodies;
  std::vector<double> shadow;
  view::JointPrediction prediction;

  // The tick link state, built by tick_links() on first use. Every AP's
  // table prices its users (receivers ctx.room_pos) against link_bodies:
  // every user's capsule by user index, then the injector's obstacles.
  // present_mask has a 1 for every body that shadows this tick (present
  // users and every obstacle). The tables hold spans into room_pos and
  // link_bodies, so neither may change size or move once a table is bound.
  std::vector<geo::BodyObstacle> link_bodies;
  std::vector<std::uint8_t> present_mask;
  // Slot per AP: that AP's table in SessionState::link_tables once this
  // tick bound it, else null.
  std::vector<mmwave::LinkTable*> links;

  // Products of the beam stage (slot per user).
  std::vector<double> unicast_rate;
  std::vector<double> unicast_rss;

  // Products of the grouping stage (slot per AP).
  std::vector<ApPlan> ap_plans;

  // Product of the transport stage (slot per user): application-layer
  // throughput samples fed to the bandwidth predictors.
  std::vector<double> app_sample_mbps;

  /// Telemetry sink (null = disabled), so stage instrumentation is written
  /// once: `auto span = ctx.span(obs::Stage::kLink);`.
  obs::Telemetry* tel = nullptr;

  [[nodiscard]] obs::Span span(obs::Stage stage,
                               std::uint32_t ap = obs::kNoId) const noexcept {
    return obs::Span(tel, stage, tick32, ap);
  }
};

struct SessionState;

/// AP `ap`'s link table for this tick. The first call in a tick fills
/// ctx.link_bodies and ctx.present_mask from ctx.bodies and the fault
/// injector; the first call per AP binds that AP's table in
/// state.link_tables (built on the session's first tick, rebound with
/// LinkTable::rebind after that; rows stay lazy) to ctx.room_pos and
/// ctx.link_bodies. Throws std::logic_error when either vector changed
/// size or moved after a table was bound (the tables would reference freed
/// or stale memory), std::out_of_range for an AP the session lacks.
[[nodiscard]] mmwave::LinkTable& tick_links(SessionState& state,
                                            TickContext& ctx, std::size_t ap);

}  // namespace volcast::core
