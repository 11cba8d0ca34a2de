#include "core/stages/beam_stage.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"
#include "mmwave/link.h"
#include "mmwave/sls.h"

namespace volcast::core {

void BeamStage::run(SessionState& state, TickContext& ctx) {
  const SessionConfig& config = state.config;
  const std::size_t n = state.user_count();
  const std::uint32_t tick32 = ctx.tick32;
  obs::Telemetry* tel = state.tel;
  auto& users = state.users;
  auto& assignment = state.assignment;
  const auto& ap_up = state.ap_up;
  const auto absent = [&](std::size_t u) { return state.absent(u); };
  const ApLinks tick_tables = [&](std::size_t a) -> mmwave::LinkTable& {
    return tick_links(state, ctx, a);
  };

  // ---- AP assignment (refreshed every second, and immediately when an AP
  // goes dark or comes back) ----------------------------------------------
  if (state.coordinator.ap_count() > 1 &&
      (ctx.tick % 30 == 0 || ctx.availability_changed)) {
    obs::Span assign_span = ctx.span(obs::Stage::kAssign);
    assign_span.add_cost(n * state.coordinator.ap_count());
    assignment = state.coordinator.assign_users(
        n, tick_tables,
        std::span<const bool>(ap_up.data(), state.coordinator.ap_count()),
        state.rss_evals);
  }

  // Multicast membership tracking: the set of users each AP can serve.
  // Under an active fault, any change to that set is a group reformation
  // (member churned, blacked out, or was re-homed after an AP outage).
  if (state.has_faults) {
    for (std::size_t a = 0; a < state.coordinator.ap_count(); ++a) {
      std::vector<std::size_t> sig;
      if (ap_up[a]) {
        for (std::size_t u = 0; u < n; ++u)
          if (assignment[u] == a && !absent(u)) sig.push_back(u);
      }
      if (ctx.tick > 0 && state.injector.any_active() &&
          sig != state.prev_active[a])
        ++state.freport.group_reformations;
      state.prev_active[a] = std::move(sig);
    }
  }

  // ---- per-user unicast link state --------------------------------------
  // Every RSS below is priced through the tick's link tables. The span's
  // logical cost is the tables' work in this loop: rows built plus RSS
  // evaluations.
  obs::Span link_span = ctx.span(obs::Stage::kLink);
  const auto link_work = [&] {
    std::uint64_t work = 0;
    for (const mmwave::LinkTable* table : ctx.links)
      if (table != nullptr) work += table->rows_built() + table->evaluations();
    return work;
  };
  const std::uint64_t work_before = link_work();
  // The bodies that shadow user u: every present user but u, and every
  // obstacle (a mask over the tick body list).
  std::vector<std::uint8_t> others;
  ctx.unicast_rate.assign(n, 0.0);
  ctx.unicast_rss.assign(n, -200.0);
  auto& unicast_rate = ctx.unicast_rate;
  auto& unicast_rss = ctx.unicast_rss;
  const mmwave::SlsProcedure sls;
  for (std::size_t u = 0; u < n; ++u) {
    const auto push_event = [&](obs::EventType type) {
      if (tel == nullptr) return;
      obs::Event e;
      e.tick = tick32;
      e.type = type;
      e.user = static_cast<std::uint32_t>(u);
      tel->record_event(e);
    };
    if (state.has_faults && (absent(u) || !ap_up[assignment[u]])) {
      // Churned out, or the serving AP is dark: no delivery path at all
      // this tick. The player rides its buffer until recovery.
      unicast_rss[u] = -200.0;
      unicast_rate[u] = 0.0;
      users[u].predictor.set_phy_state(0.0, false);
      continue;
    }
    const Testbed& tb = state.coordinator.ap(assignment[u]);
    mmwave::LinkTable& links = tick_links(state, ctx, assignment[u]);
    others.assign(ctx.present_mask.begin(), ctx.present_mask.end());
    others[u] = 0;

    // The beam that carries this tick: a codebook sector, the design in
    // state.unicast_design, or the reactive user's swept sector.
    const mmwave::Awv* serving = nullptr;
    // The serving beam's RSS when its design already priced it under
    // `others` (design_unicast's weakest, and only, member).
    std::optional<double> designed_rss;
    if (state.has_faults && state.injector.sector_stuck(u)) {
      // Stuck sector: the radio keeps riding the sweep result frozen at
      // the moment the fault hit, however stale it gets. That position is
      // no table receiver, so the sweep is redone from it.
      SessionState::User& st = users[u];
      if (!st.was_stuck) {
        st.was_stuck = true;
        st.stuck_pos = ctx.room_pos[u];
      }
      serving = &tb.codebook().beam(
          tb.codebook().best_beam_toward(tb.ap(), st.stuck_pos));
      state.fault_fallback[u] = 1;
    } else if (predictive_) {
      users[u].was_stuck = false;
      // The paper's proposal: steer from the (predicted) 6DoF position,
      // no beam search, no outage. A custom beam must be probed before
      // use, and under a probe fault that probe fails: retry with
      // exponential backoff, riding the fallback chain meanwhile.
      bool use_custom = true;
      if (state.has_faults) {
        SessionState::User& st = users[u];
        if (st.probe_backoff_ticks > 0) {
          --st.probe_backoff_ticks;  // still backing off a failed probe
          use_custom = false;
        } else if (state.injector.probe_fail(u)) {
          ++state.freport.probe_retries;
          push_event(obs::EventType::kProbeRetry);
          st.probe_backoff_ticks = st.probe_backoff_next;
          st.probe_backoff_next = std::min(st.probe_backoff_next * 2, 16);
          use_custom = false;
        } else {
          st.probe_backoff_next = 1;  // probe succeeded
        }
      }
      if (use_custom) {
        GroupBeam& designed = state.unicast_design;
        state.designers[assignment[u]].design_unicast(links, u, others,
                                                      designed);
        serving = &designed.awv;
        designed_rss = designed.min_member_rss_dbm;
      } else {
        // Fallback chain, step 1: the stock sector beam needs no probe.
        serving = &tb.codebook().beam(links.best_sector(u));
        ++state.freport.fallback_stock_beams;
        push_event(obs::EventType::kFallbackStockBeam);
        state.fault_fallback[u] = 1;
      }
    } else {
      // Reactive baseline: ride the last swept sector; re-train via SLS
      // when it goes stale, paying the 5-20 ms search outage.
      SessionState::User& st = users[u];
      auto start_sweep = [&] {
        st.sls_remaining_ticks = std::max(
            1, static_cast<int>(
                   std::ceil(sls.outage_s(tb.codebook()) * config.fps)));
        ++state.sls_sweeps;
        push_event(obs::EventType::kSlsSweep);
      };
      if (st.sls_remaining_ticks > 0) {
        --st.sls_remaining_ticks;
        ++state.sls_outage_ticks;
        if (st.sls_remaining_ticks == 0) {
          st.serving_awv = tb.codebook().beam(links.best_sector(u));
        }
        unicast_rss[u] = -200.0;
        unicast_rate[u] = 0.0;
        users[u].predictor.set_phy_state(0.0, users[u].blockage_forecast);
        continue;
      }
      if (st.serving_awv.empty()) {
        start_sweep();
        unicast_rss[u] = -200.0;
        unicast_rate[u] = 0.0;
        users[u].predictor.set_phy_state(0.0, users[u].blockage_forecast);
        continue;
      }
      const double serving_rss =
          links.rss(st.serving_awv, u, others, state.rss_evals);
      const double best_rss =
          links.sector_rss(links.best_sector(u), u, others, state.rss_evals);
      // Re-train when the sector went stale — or when the link fell
      // below the usable floor, which a reactive device cannot tell
      // apart from misalignment. Sweeping into a body blockage is
      // exactly the wasted 5-20 ms the paper's proactive design avoids.
      if (serving_rss < best_rss - config.sls_staleness_db ||
          serving_rss < -68.0)
        start_sweep();
      serving = &st.serving_awv;  // stale or not, it carries this tick
    }

    double rss =
        (designed_rss ? *designed_rss
                      : links.rss(*serving, u, others, state.rss_evals)) +
        ctx.shadow[u];
    // Reflection override from an earlier mitigation action: use it when
    // it currently beats the (possibly blocked) line of sight.
    if (users[u].reflection_ticks > 0 && !users[u].reflection_awv.empty()) {
      const double refl =
          links.rss(users[u].reflection_awv, u, others, state.rss_evals) +
          ctx.shadow[u];
      if (refl > rss) {
        rss = refl;
        ++state.reflection_switches;
        push_event(obs::EventType::kReflectionSwitch);
      }
      --users[u].reflection_ticks;
    }
    if (state.has_faults && state.fault_fallback[u] != 0 && rss < -68.0) {
      // Fallback chain, step 2: the stock beam is unusable too (stale
      // sector, or a fault-spawned obstacle shadows the LoS) — try a
      // reflected path off the room surfaces.
      const GroupBeam refl_beam =
          state.designers[assignment[u]].design_reflection(links, u, others);
      if (!refl_beam.awv.empty()) {
        const double refl_rss =
            links.rss(refl_beam.awv, u, others, state.rss_evals) +
            ctx.shadow[u];
        if (refl_rss > rss) {
          rss = refl_rss;
          ++state.freport.fallback_reflection_beams;
          push_event(obs::EventType::kFallbackReflection);
        }
      }
    }
    unicast_rss[u] = rss;
    unicast_rate[u] = state.mcs->goodput_mbps(rss);
    if (state.coordinator.ap_count() > 1) {
      unicast_rate[u] *= state.coordinator.interference_factor(
          assignment[u], u, rss, state.concurrent_beams, tick_tables,
          state.rss_evals);
    }
    users[u].predictor.set_phy_state(unicast_rate[u],
                                     users[u].blockage_forecast);
  }
  link_span.add_cost(link_work() - work_before);
  link_span.end();
}

}  // namespace volcast::core
