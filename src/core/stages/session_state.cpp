#include "core/stages/session_state.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.h"
#include "core/stages/tick_context.h"

namespace volcast::core {

double visible_bits(const view::VisibilityMap& map, const vv::VideoStore& store,
                    std::size_t frame, std::size_t tier, double min_lod) {
  double bits = 0.0;
  for (vv::CellId c = 0; c < map.cell_count(); ++c) {
    const double lod = map.lod(c);
    if (lod > min_lod)
      bits += byte_bits(static_cast<double>(store.cell_bytes(frame, tier, c))) *
              lod;
  }
  return bits;
}

mmwave::LinkTable& tick_links(SessionState& state, TickContext& ctx,
                              std::size_t ap) {
  if (ctx.links.empty()) {
    ctx.link_bodies.assign(ctx.bodies.begin(), ctx.bodies.end());
    for (const geo::BodyObstacle& o : state.injector.obstacles())
      ctx.link_bodies.push_back(o);
    ctx.present_mask.assign(ctx.link_bodies.size(), 1);
    for (std::size_t u = 0; u < state.user_count(); ++u)
      if (state.absent(u)) ctx.present_mask[u] = 0;
    ctx.links.assign(state.coordinator.ap_count(), nullptr);
  }
  for (const mmwave::LinkTable* table : ctx.links)
    if (table != nullptr &&
        (table->receivers().size() != ctx.room_pos.size() ||
         table->receivers().data() != ctx.room_pos.data() ||
         table->bodies().size() != ctx.link_bodies.size() ||
         table->bodies().data() != ctx.link_bodies.data()))
      throw std::logic_error(
          "tick_links: ctx.room_pos or the tick body list changed size or "
          "moved after this tick's link tables were built");
  mmwave::LinkTable*& slot = ctx.links.at(ap);
  if (slot == nullptr) {
    if (state.link_tables.empty())
      for (const BeamDesigner& designer : state.designers)
        state.link_tables.push_back(designer.link_table(
            ctx.room_pos, ctx.link_bodies, state.link_counters));
    slot = &state.link_tables[ap];
    slot->rebind(ctx.room_pos, ctx.link_bodies);
  }
  return *slot;
}

MultiApConfig SessionState::multi_ap_config(const SessionConfig& c) {
  MultiApConfig mc;
  mc.ap_count = std::max<std::size_t>(c.ap_count, 1);
  return mc;
}

view::JointPredictorConfig SessionState::joint_config(const SessionConfig& c,
                                                      const Testbed& tb) {
  view::JointPredictorConfig jc;
  jc.user_occlusion = c.enable_user_occlusion;
  jc.visibility.intrinsics = view::device_intrinsics(c.device);
  // The joint predictor works in content-local coordinates; express the
  // (primary) AP there.
  jc.ap_position = tb.config().ap_position - tb.config().content_floor;
  jc.metrics = c.telemetry != nullptr ? &c.telemetry->metrics() : nullptr;
  return jc;
}

std::vector<BeamDesigner> SessionState::make_designers(
    const SessionConfig& c, const MultiApCoordinator& coordinator) {
  BeamDesignerConfig bd;
  bd.enable_custom_beams = c.enable_custom_beams;
  bd.metrics = c.telemetry != nullptr ? &c.telemetry->metrics() : nullptr;
  std::vector<BeamDesigner> designers;
  for (std::size_t a = 0; a < coordinator.ap_count(); ++a)
    designers.emplace_back(coordinator.ap(a), bd);
  return designers;
}

SessionState::SessionState(SessionConfig c)
    : config(c),
      coordinator(c.testbed, multi_ap_config(c)),
      // A shared bundle (validated against this config by
      // SessionConfig::validate) short-circuits the whole setup path; the
      // legacy per-session path is simply a private bundle.
      bundle(c.bundle != nullptr ? c.bundle : WorkloadBundle::build(c)),
      generator(bundle->generator()),
      grid(bundle->grid()),
      store(bundle->store()),
      occupancy(bundle->occupancy()),
      joint(c.user_count, joint_config(c, coordinator.ap(0))),
      designers(make_designers(c, coordinator)),
      mitigator(coordinator.ap(0), designers.front(), MitigatorConfig{}),
      injector(c.fault_plan, c.user_count,
               std::max<std::size_t>(c.ap_count, 1), c.seed ^ 0xfa17ULL),
      health(c.user_count),
      has_faults(!c.fault_plan.empty()) {
  tel = config.telemetry;
  if (tel != nullptr) {
    rss_evals = &tel->metrics().counter("mmwave.rss_evals");
    link_counters = {&tel->metrics().counter("mmwave.link_rows"),
                     &tel->metrics().counter("mmwave.rss_reused"),
                     &tel->metrics().counter("mmwave.rss_screened")};
    plan_evals = &tel->metrics().counter("grouping.plan_evals");
    plan_hits = &tel->metrics().counter("grouping.plan_hits");
    plan_skips = &tel->metrics().counter("grouping.plan_skips");
  }

  Rng seeder(c.seed);
  const geo::Vec3 center = generator.content_center();
  for (std::size_t u = 0; u < c.user_count; ++u) {
    const double frac =
        c.user_count > 1
            ? static_cast<double>(u) / static_cast<double>(c.user_count - 1)
            : 0.5;
    // Audience arc centered on the far side of the content from the
    // first AP, matching the user study.
    const double home = 1.5707963267948966 +
                        (frac - 0.5) * c.audience_spread_rad +
                        seeder.uniform(-0.1, 0.1);
    Rng param_rng = seeder.fork();
    const auto params =
        trace::MobilityParams::for_device(c.device, param_rng, center, home);
    User user{trace::MobilityModel(params, seeder.next_u64()),
              mmwave::ShadowingProcess(c.testbed.shadowing_sigma_db,
                                       c.testbed.shadowing_coherence_s,
                                       seeder.next_u64()),
              sim::Player(c.fps),
              BandwidthPredictor(c.estimator),
              std::min(c.start_tier, store.tier_count() - 1)};
    users.push_back(std::move(user));
  }
  if (tel != nullptr)
    for (User& user : users) user.player.bind_metrics(&tel->metrics());
}

void SessionState::begin_run() {
  const std::size_t n = config.user_count;
  dt = 1.0 / config.fps;
  horizon_ticks = static_cast<std::size_t>(
      std::llround(config.prediction_horizon_s * config.fps));
  mcs = &coordinator.ap(0).mcs();
  backlog.assign(coordinator.ap_count(), 0.0);
  assignment.assign(n, 0);
  concurrent_beams.assign(coordinator.ap_count(), {});
  prev_tier.assign(tel != nullptr ? n : 0, 0);
  ap_up.fill(true);
  prev_active.assign(coordinator.ap_count(), {});
  fault_fallback.assign(n, 0);

  if (tel != nullptr) {
    obs::SessionMeta meta;
    meta.users = static_cast<std::uint32_t>(n);
    meta.aps = static_cast<std::uint32_t>(coordinator.ap_count());
    meta.fps = config.fps;
    meta.duration_s = config.duration_s;
    meta.seed = config.seed;
    tel->begin_session(meta);
  }
}

}  // namespace volcast::core
