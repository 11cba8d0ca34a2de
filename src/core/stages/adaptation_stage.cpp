#include "core/stages/adaptation_stage.h"

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"

namespace volcast::core {

void AdaptationStage::run(SessionState& state, TickContext& ctx) {
  const SessionConfig& config = state.config;
  const std::size_t n = state.user_count();
  obs::Telemetry* tel = state.tel;
  auto& users = state.users;

  obs::Span adapt_span = ctx.span(obs::Stage::kAdapt);
  RateAdapterConfig rc;
  rc.policy = policy_;
  rc.low_buffer_s = 0.75 / config.fps;  // under one frame buffered
  rc.high_buffer_s = 1.6 / config.fps;  // healthy: > 1.6 frames
  rc.metrics = tel != nullptr ? &tel->metrics() : nullptr;
  const RateAdapter adapter(rc);
  if (tel != nullptr)
    for (std::size_t u = 0; u < n; ++u) state.prev_tier[u] = users[u].tier;
  std::vector<std::size_t> ap_active(state.coordinator.ap_count(), 0);
  for (std::size_t u = 0; u < n; ++u)
    if (ctx.unicast_rate[u] > 0.0) ++ap_active[state.assignment[u]];
  for (std::size_t u = 0; u < n; ++u) {
    AdaptationInput in;
    in.buffer_s = users[u].player.buffer_s();
    // The air interface is shared: a user can only count on its share of
    // the frame interval (the central scheduler knows the user count —
    // exactly the paper's argument for server-side adaptation).
    const double share = static_cast<double>(
        std::max<std::size_t>(ap_active[state.assignment[u]], 1));
    in.predicted_mbps = users[u].predictor.predict_mbps() / share;
    in.tier_count = state.store.tier_count();
    in.current_tier = users[u].tier;
    in.blockage_forecast = users[u].blockage_forecast;
    // Cross-layer wire feedback: residual loss after FEC, written by the
    // transport stage's delivery loop last tick (0 under the
    // goodput policy, so this is a no-op there).
    in.residual_loss = users[u].receiver.residual_loss;
    for (std::size_t q = 0; q < state.store.tier_count() && q < 3; ++q) {
      in.demand_mbps[q] = bits_to_megabits(
          visible_bits(ctx.prediction.visibility[u], state.store,
                       ctx.target_frame, q, state.shed.min_lod) *
          config.fps);
    }
    const AdaptationDecision decision = adapter.decide(in);
    users[u].tier = decision.tier;
    if (state.has_faults && state.fault_fallback[u] != 0) {
      // Fallback chain, step 3 (last resort): a user riding a fallback
      // beam whose link cannot carry its tier sheds quality immediately
      // instead of waiting for the adapter's smoothed estimate.
      while (users[u].tier > 0 &&
             in.demand_mbps[std::min<std::size_t>(users[u].tier, 2)] >
                 in.predicted_mbps) {
        --users[u].tier;
        ++state.freport.fallback_tier_drops;
      }
    }
    if (decision.prefetch && users[u].prefetch_credit == 0)
      users[u].prefetch_credit = 2;
  }
  // Brownout shed, applied after every user's decision. The priority order
  // is fixed: far users first (yellow), everyone under the global cap
  // (red). Distance ties break by user index.
  if (state.shed.any()) {
    std::size_t capped = 0;
    if (state.shed.far_user_count > 0 &&
        state.shed.far_tier_cap != overload::kNoTierCap) {
      const geo::Vec3 center = state.generator.content_center();
      std::vector<std::size_t> order(n);
      for (std::size_t u = 0; u < n; ++u) order[u] = u;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const double da = (ctx.local_poses[a].position - center).norm();
        const double db = (ctx.local_poses[b].position - center).norm();
        if (da != db) return da > db;
        return a < b;
      });
      const std::size_t far_n = std::min(state.shed.far_user_count, n);
      for (std::size_t i = 0; i < far_n; ++i) {
        const std::size_t u = order[i];
        if (users[u].tier > state.shed.far_tier_cap) {
          users[u].tier = state.shed.far_tier_cap;
          ++capped;
        }
      }
    }
    if (state.shed.global_tier_cap != overload::kNoTierCap) {
      for (std::size_t u = 0; u < n; ++u) {
        if (users[u].tier > state.shed.global_tier_cap) {
          users[u].tier = state.shed.global_tier_cap;
          ++capped;
        }
      }
    }
    if (capped > 0) {
      state.oreport.tier_capped_user_ticks += capped;
      if (tel != nullptr) {
        tel->metrics().counter("overload.tier_caps").add(capped);
        obs::Event e;
        e.tick = ctx.tick32;
        e.type = obs::EventType::kOverloadShed;
        e.value = static_cast<double>(capped);
        e.has_value = true;
        tel->record_event(e);
      }
    }
  }
  if (tel != nullptr) {
    for (std::size_t u = 0; u < n; ++u) {
      if (users[u].tier == state.prev_tier[u]) continue;
      obs::Event e;
      e.tick = ctx.tick32;
      e.type = obs::EventType::kTierChange;
      e.user = static_cast<std::uint32_t>(u);
      e.value = static_cast<double>(users[u].tier);
      e.has_value = true;
      tel->record_event(e);
    }
  }
  adapt_span.add_cost(n);
  adapt_span.end();
}

}  // namespace volcast::core
