#include "core/stages/prediction_stage.h"

#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"

namespace volcast::core {

void PredictionStage::run(SessionState& state, TickContext& ctx) {
  const SessionConfig& config = state.config;
  const std::size_t n = state.user_count();
  const double dt = state.dt;

  // ---- observe poses, bodies, shadowing -------------------------------
  obs::Span pose_span = ctx.span(obs::Stage::kPose);
  ctx.local_poses.resize(n);
  ctx.room_pos.resize(n);
  ctx.bodies.resize(n);
  ctx.shadow.resize(n);
  const bool replaying = !config.replay_traces.empty();
  for (std::size_t u = 0; u < n; ++u) {
    if (replaying) {
      const auto& poses = config.replay_traces[u].poses;
      ctx.local_poses[u] = poses[ctx.tick % poses.size()];
      (void)state.users[u].mobility.step(dt);  // keep RNG streams aligned
    } else {
      ctx.local_poses[u] = state.users[u].mobility.step(dt);
    }
    ctx.room_pos[u] = state.coordinator.ap(0).to_room(ctx.local_poses[u].position);
    ctx.bodies[u] = {ctx.room_pos[u], 0.25, 1.8};
    ctx.shadow[u] = state.users[u].shadowing.step(dt);
  }
  state.joint.observe(ctx.t, ctx.local_poses);
  pose_span.add_cost(n);
  pose_span.end();

  // ---- joint prediction -----------------------------------------------
  obs::Span predict_span = ctx.span(obs::Stage::kPredict);
  ctx.target_frame = (ctx.tick + state.horizon_ticks) % config.video_frames;
  ctx.prediction = state.joint.predict(config.prediction_horizon_s, state.grid,
                                       state.occupancy[ctx.target_frame]);
  for (std::size_t u = 0; u < n; ++u) state.users[u].blockage_forecast = false;
  for (const auto& forecast : ctx.prediction.blockages) {
    if (forecast.user < n) state.users[forecast.user].blockage_forecast = true;
  }
  state.blockage_forecasts += ctx.prediction.blockages.size();
  predict_span.add_cost(n * state.grid.cell_count());
  predict_span.end();
}

}  // namespace volcast::core
