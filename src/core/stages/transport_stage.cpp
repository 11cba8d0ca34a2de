#include "core/stages/transport_stage.h"

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"
#include "mmwave/link.h"
#include "mmwave/per.h"

namespace volcast::core {

void TransportStage::run(SessionState& state, TickContext& ctx) {
  const SessionConfig& config = state.config;
  const std::size_t n = state.user_count();
  const std::size_t frame = ctx.frame;
  const std::size_t tick = ctx.tick;
  const std::uint32_t tick32 = ctx.tick32;
  const double t = ctx.t;
  const double dt = state.dt;
  obs::Telemetry* tel = state.tel;
  auto& users = state.users;
  const auto absent = [&](std::size_t u) { return state.absent(u); };
  const auto lost = [&](std::size_t u) {
    return state.has_faults && state.injector.frame_lost(u, tick);
  };
  const bool use_wire = policy_ != transport::TransportPolicy::kGoodput;
  const mmwave::PerModel per_model{};

  ctx.app_sample_mbps.assign(n, 0.0);
  auto& app_sample_mbps = ctx.app_sample_mbps;
  for (std::size_t a = 0; a < state.coordinator.ap_count(); ++a) {
    if (!ctx.ap_plans[a].active) continue;
    const auto ap32 = static_cast<std::uint32_t>(a);
    const std::vector<std::size_t>& members = ctx.ap_plans[a].members;
    const GroupingResult& grouping = ctx.ap_plans[a].grouping;

    obs::Span schedule_span = ctx.span(obs::Stage::kSchedule, ap32);
    if (tel != nullptr)
      mac::observe_schedule(grouping.schedule, config.mac_overheads,
                            tel->metrics());
    const double airtime = grouping.schedule.airtime_s(config.mac_overheads);
    state.scheduled_airtime += airtime;
    state.backlog[a] = std::max(0.0, state.backlog[a] - dt) + airtime;
    const double delivery_time = t + state.backlog[a];

    for (const mac::GroupPlan& plan : grouping.schedule.groups) {
      schedule_span.add_cost(plan.members.size());
      state.group_size_sum += static_cast<double>(plan.members.size());
      ++state.group_count;
      const bool is_multicast = plan.members.size() > 1 &&
                                plan.multicast_rate_mbps > 0.0 &&
                                plan.group_overlap_bits > 0.0;
      for (const mac::UserDemand& demand : plan.members) {
        const std::size_t u = demand.user;
        const double bits = demand.total_bits;
        // Application-layer throughput sample: bits over the transfer
        // time this user's frame actually took — multicast sharing shows
        // up here as a higher effective rate.
        double transfer_s = 0.0;
        if (is_multicast) {
          transfer_s =
              tx_time_s(plan.group_overlap_bits, plan.multicast_rate_mbps);
          const double residual =
              std::max(bits - plan.group_overlap_bits, 0.0);
          if (demand.unicast_rate_mbps > 0.0)
            transfer_s += tx_time_s(residual, demand.unicast_rate_mbps);
        } else if (demand.unicast_rate_mbps > 0.0) {
          transfer_s = tx_time_s(bits, demand.unicast_rate_mbps);
        }
        if (transfer_s > 0.0)
          app_sample_mbps[u] = bits_to_megabits(bits / transfer_s);
        if (is_multicast) {
          state.multicast_bits += plan.group_overlap_bits;
          state.unicast_bits += std::max(bits - plan.group_overlap_bits, 0.0);
        } else {
          state.unicast_bits += bits;
        }
        users[u].delivered_bits += bits;
        const std::size_t tier = users[u].tier;
        // Packet wire: the scheduled bits become a packet train with
        // per-user loss from the shared transmission, FEC repair, and
        // NACK rounds racing the frame deadline.
        transport::TrainResult train;
        bool wire_ok = true;
        if (use_wire && bits > 0.0) {
          transport::TrainParams tp;
          tp.frame_bits = bits;
          tp.per = per_model.multicast_residual_per(
              *state.mcs, ctx.unicast_rss[u], transport::kTargetPer);
          tp.burst_loss =
              state.has_faults ? state.injector.burst_loss_probability(u)
                               : 0.0;
          tp.deadline_ms =
              std::max(0.0, 1000.0 / config.fps - transfer_s * 1000.0);
          tp.seed = config.seed;
          tp.user = u;
          tp.tick = tick32;
          tp.frame = static_cast<std::uint16_t>(frame);
          train = transport::transmit_train(policy_, tp, users[u].receiver);
          state.twire.add(train);
          if (train.recovery_ms > 0.0)
            state.recovery_samples.push_back(train.recovery_ms);
          wire_ok = train.frame_ok();
          // Parity, retransmissions and headers are real bits on the air:
          // they consume airtime on top of the scheduled frame.
          const double wire_rate = demand.unicast_rate_mbps > 0.0
                                       ? demand.unicast_rate_mbps
                                       : plan.multicast_rate_mbps;
          if (wire_rate > 0.0) {
            const double extra_air = tx_time_s(
                train.parity_bits + train.retransmit_bits + train.header_bits,
                wire_rate);
            state.scheduled_airtime += extra_air;
            state.backlog[a] += extra_air;
          }
          if (tel != nullptr) {
            obs::MetricRegistry& metrics = tel->metrics();
            metrics.counter("transport.packets_sent")
                .add(train.data_packets);
            metrics.counter("transport.parity_packets")
                .add(train.parity_packets);
            metrics.counter("transport.packets_lost").add(train.lost_packets);
            metrics.counter("transport.retransmitted_packets")
                .add(train.retransmitted_packets);
            metrics.counter("transport.fec_recovered_tiles")
                .add(train.fec_recovered_tiles);
            metrics.counter("transport.deadline_missed_tiles")
                .add(train.failed_tiles);
            const auto u32 = static_cast<std::uint32_t>(u);
            const auto record = [&](obs::EventType type, double value) {
              obs::Event e;
              e.tick = tick32;
              e.type = type;
              e.user = u32;
              e.ap = ap32;
              e.value = value;
              e.has_value = true;
              tel->record_event(e);
            };
            if (train.fec_recovered_tiles > 0)
              record(obs::EventType::kFecRecovery,
                     static_cast<double>(train.fec_recovered_tiles));
            if (train.retransmitted_packets > 0)
              record(obs::EventType::kRetransmit,
                     static_cast<double>(train.retransmitted_packets));
            if (train.failed_tiles > 0)
              record(obs::EventType::kDeadlineMiss,
                     static_cast<double>(train.failed_tiles));
          }
        }
        // The frame is playable only after the client decodes it. Under
        // brownout the governor's saliency floor sheds the faint cells
        // from the decode workload too.
        double visible_points = 0.0;
        std::size_t shed_cells = 0;
        for (vv::CellId cell = 0; cell < state.grid.cell_count(); ++cell) {
          const double lod = ctx.prediction.visibility[u].lod(cell);
          if (lod <= 0.0) continue;
          if (lod <= state.shed.min_lod) {
            ++shed_cells;
            continue;
          }
          visible_points += lod * state.store.cell_points(frame, tier, cell);
        }
        if (shed_cells > 0) {
          state.oreport.cells_shed += shed_cells;
          if (tel != nullptr)
            tel->metrics().counter("overload.cells_shed").add(shed_cells);
        }
        const double decode_time =
            config.decode_points_per_second > 0.0
                ? visible_points / config.decode_points_per_second
                : 0.0;
        if (state.has_faults && state.injector.decoder_stalled(u)) {
          // The decoder is frozen: nothing completes before the stall
          // lifts (clamped to the session end for permanent stalls).
          const double resume = std::min(state.injector.decoder_stall_until(u),
                                         config.duration_s);
          users[u].decode_free_at = std::max(users[u].decode_free_at, resume);
        }
        // NACK recovery delays when the frame is complete at the receiver.
        const double user_delivery = delivery_time + train.recovery_ms * 1e-3;
        users[u].decode_free_at =
            std::max(users[u].decode_free_at, user_delivery) + decode_time;
        users[u].m2p.add(users[u].decode_free_at - t);
        // A frame corrupted on the air interface, or with tiles the wire
        // could not recover before the frame deadline, spent its airtime
        // but arrives unplayable.
        state.arrivals.push({users[u].decode_free_at, u, {frame, tier, bits},
                             wire_ok && !lost(u)});
      }
    }

    // Prefetch: fetch one frame ahead per tick of credit, while the air
    // queue is healthy.
    for (std::size_t u : members) {
      if (users[u].prefetch_credit == 0 ||
          state.backlog[a] > kMaxBacklogS * 0.5)
        continue;
      --users[u].prefetch_credit;
      ++users[u].frames_ahead;
      if (tel != nullptr) {
        obs::Event e;
        e.tick = tick32;
        e.type = obs::EventType::kPrefetch;
        e.user = static_cast<std::uint32_t>(u);
        e.ap = ap32;
        tel->record_event(e);
      }
      const std::size_t next_frame = (frame + 1) % config.video_frames;
      const double bits =
          visible_bits(ctx.prediction.visibility[u], state.store, next_frame,
                       users[u].tier, state.shed.min_lod);
      if (ctx.unicast_rate[u] <= 0.0) continue;
      const double extra_air = tx_time_s(bits, ctx.unicast_rate[u]);
      state.scheduled_airtime += extra_air;
      state.backlog[a] += extra_air;
      state.unicast_bits += bits;
      users[u].delivered_bits += bits;
      state.arrivals.push({t + state.backlog[a], u,
                           {next_frame, users[u].tier, bits}, !lost(u)});
    }

    schedule_span.end();

    // Viewport-prediction quality: what fraction of the cells each member
    // actually needs (at its true pose) did the prediction-driven fetch
    // miss?
    std::vector<geo::BodyObstacle> local_bodies;  // refilled per member
    local_bodies.reserve(n);
    for (const std::size_t u : members) {
      local_bodies.clear();
      if (config.enable_user_occlusion) {
        for (std::size_t v = 0; v < n; ++v) {
          if (v == u) continue;
          local_bodies.push_back({ctx.local_poses[v].position, 0.25, 1.8});
        }
      }
      const auto actual = view::compute_visibility(
          state.grid, state.occupancy[frame], ctx.local_poses[u],
          state.joint.config().visibility, local_bodies);
      std::size_t needed = 0;
      std::size_t missed = 0;
      for (vv::CellId cell = 0; cell < state.grid.cell_count(); ++cell) {
        if (!actual.visible(cell)) continue;
        ++needed;
        if (!ctx.prediction.visibility[u].visible(cell)) ++missed;
      }
      if (needed > 0) {
        users[u].miss_sum +=
            static_cast<double>(missed) / static_cast<double>(needed);
        ++users[u].miss_count;
      }
    }
  }

  // ---- app-layer observation + playback ---------------------------------
  obs::Span player_span = ctx.span(obs::Stage::kPlayer);
  player_span.add_cost(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (app_sample_mbps[u] > 0.0)
      users[u].predictor.observe(app_sample_mbps[u], ctx.unicast_rate[u]);
    if (state.has_faults) {
      const bool is_absent = absent(u);
      const bool delivering = !is_absent && state.ap_up[state.assignment[u]] &&
                              ctx.unicast_rate[u] > 0.0;
      const bool impaired = state.injector.probe_fail(u) ||
                            state.injector.sector_stuck(u) ||
                            state.injector.decoder_stalled(u) ||
                            state.injector.frame_loss_probability(u) > 0.0;
      const fault::HealthState s = state.health[u].observe(
          t, delivering, ctx.unicast_rate[u], impaired);
      if (s == fault::HealthState::kDegraded)
        ++state.freport.degraded_user_ticks;
      if (s == fault::HealthState::kOutage)
        ++state.freport.unhealthy_user_ticks;
      if (!is_absent) {
        // Playback continues only while the user is in the room; stalls
        // during an active fault are attributed to it.
        const double stall_before = users[u].player.stall_time_s();
        users[u].player.advance(dt);
        if (state.injector.any_active())
          state.freport.fault_rebuffer_s +=
              users[u].player.stall_time_s() - stall_before;
      }
    } else {
      users[u].player.advance(dt);
    }
    if (config.tick_observer) {
      config.tick_observer({t, u, users[u].player.buffer_s(), users[u].tier,
                            ctx.unicast_rss[u], ctx.unicast_rate[u],
                            users[u].blockage_forecast});
    }
  }
}

}  // namespace volcast::core
