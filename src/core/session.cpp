// Session driver: validates the config, assembles the staged pipeline
// from the policy registry, and owns the tick loop. All per-tick work
// lives in the stages (src/core/stages/); the driver contributes only
// what frames them — the event-queue clock, the fault-injection prologue
// that updates AP availability, and the result finalization.
#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "core/stages/registry.h"
#include "core/supervisor.h"
#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"
#include "core/workload_bundle.h"
#include "obs/telemetry.h"

namespace volcast::core {

void SessionConfig::validate() const {
  if (!(fps > 0.0))
    throw std::invalid_argument("SessionConfig: fps must be > 0");
  if (!(duration_s > 0.0))
    throw std::invalid_argument("SessionConfig: duration_s must be > 0");
  if (user_count == 0)
    throw std::invalid_argument("SessionConfig: user_count must be > 0");
  if (master_points == 0)
    throw std::invalid_argument("SessionConfig: master_points must be > 0");
  if (video_frames == 0)
    throw std::invalid_argument("SessionConfig: video_frames must be > 0");
  if (!(cell_size_m > 0.0))
    throw std::invalid_argument("SessionConfig: cell_size_m must be > 0");
  if (ap_count < 1 || ap_count > 4)
    throw std::invalid_argument("SessionConfig: ap_count must be in [1, 4]");
  if (start_tier > 2)
    throw std::invalid_argument(
        "SessionConfig: start_tier must be in [0, 2] (three quality tiers)");
  if (!(prediction_horizon_s >= 0.0))
    throw std::invalid_argument(
        "SessionConfig: prediction_horizon_s must be >= 0");
  if (!(decode_points_per_second >= 0.0))
    throw std::invalid_argument(
        "SessionConfig: decode_points_per_second must be >= 0");
  if (!replay_traces.empty()) {
    if (replay_traces.size() < user_count)
      throw std::invalid_argument(
          "SessionConfig: fewer replay traces than users");
    for (const auto& trace : replay_traces)
      if (trace.poses.empty())
        throw std::invalid_argument("SessionConfig: empty replay trace");
  }
  for (const auto& [slot, name] : policy_overrides) {
    const auto kind = parse_stage_kind(slot);
    if (!kind.has_value())
      throw std::invalid_argument(
          "SessionConfig: unknown pipeline slot '" + slot +
          "' in policy_overrides (expected overload, prediction, beam, "
          "adaptation, mitigation, grouping, tiling or transport)");
    if (!PolicyRegistry::instance().contains(*kind, name)) {
      std::string msg = "SessionConfig: unknown " + slot + " policy '" +
                        name + "'; registered:";
      for (const auto& known : PolicyRegistry::instance().names(*kind))
        msg += " " + known;
      throw std::invalid_argument(msg);
    }
  }
  fault_plan.validate(user_count, ap_count);
  try {
    overload.validate();
  } catch (const std::invalid_argument& bad) {
    throw std::invalid_argument(std::string("SessionConfig: ") + bad.what());
  }
  if (bundle != nullptr && !(bundle->key() == WorkloadKey::from(*this)))
    throw std::invalid_argument(
        "SessionConfig: bundle workload identity does not match this "
        "config (video seed, master_points, video_frames, fps and "
        "cell_size_m must all agree)");
}

struct Session::Impl {
  SessionState state;
  std::vector<std::unique_ptr<Stage>> pipeline;
  bool ran = false;

  explicit Impl(SessionConfig c)
      : state(std::move(c)), pipeline(build_pipeline(state.config)) {}

  SessionResult run();
};

SessionResult Session::Impl::run() {
  if (ran)
    throw std::logic_error(
        "Session::run() called twice: a run consumes the session state; "
        "construct a fresh Session to re-run");
  ran = true;

  const SessionConfig& config = state.config;
  const auto ticks = static_cast<std::size_t>(
      std::llround(config.duration_s * config.fps));
  const std::size_t n = config.user_count;
  state.begin_run();

  for (std::size_t tick = 0; tick < ticks; ++tick) {
    if (config.tick_budget != 0 && tick >= config.tick_budget)
      throw DeadlineExceeded(
          "session deadline: tick budget " +
          std::to_string(config.tick_budget) + " exhausted with " +
          std::to_string(ticks - tick) + " of " + std::to_string(ticks) +
          " ticks left");
    TickContext ctx;
    ctx.tick = tick;
    ctx.tick32 = static_cast<std::uint32_t>(tick);
    ctx.t = static_cast<double>(tick) * state.dt;
    ctx.tel = state.tel;
    state.queue.run_until(ctx.t);
    ctx.frame = tick % config.video_frames;

    // Fault-injection prologue: advance the injector's clock and fold AP
    // outages into the availability flags before any stage runs. Inert
    // (and cost-free on the hot paths) with an empty plan.
    if (state.has_faults) {
      const std::size_t fired = state.injector.advance(ctx.t);
      state.freport.faults_injected += fired;
      if (state.injector.crash_triggered())
        throw fault::SessionCrashFault(
            "fault plan: session crash injected at t=" +
            std::to_string(state.injector.crash_onset_s()) + "s (tick " +
            std::to_string(tick) + ")");
      if (state.tel != nullptr && fired > 0) {
        obs::Event e;
        e.tick = ctx.tick32;
        e.type = obs::EventType::kFaultInjected;
        e.value = static_cast<double>(fired);
        e.has_value = true;
        state.tel->record_event(e);
      }
      for (std::size_t a = 0; a < state.coordinator.ap_count(); ++a) {
        const bool up = !state.injector.ap_down(a);
        if (up != state.ap_up[a]) {
          ctx.availability_changed = true;
          if (state.tel != nullptr) {
            obs::Event e;
            e.tick = ctx.tick32;
            e.type = up ? obs::EventType::kApUp : obs::EventType::kApDown;
            e.ap = static_cast<std::uint32_t>(a);
            state.tel->record_event(e);
          }
        }
        state.ap_up[a] = up;
      }
      std::fill(state.fault_fallback.begin(), state.fault_fallback.end(), 0);
    }

    for (const auto& stage : pipeline) stage->run(state, ctx);
  }
  state.queue.run();

  SessionResult result;
  result.qoe.duration_s = config.duration_s;
  for (std::size_t u = 0; u < n; ++u) {
    sim::UserQoe q;
    q.user = u;
    q.displayed_fps =
        state.users[u].player.played_frames() / config.duration_s;
    q.stall_time_s = state.users[u].player.stall_time_s();
    q.stall_ratio = q.stall_time_s / config.duration_s;
    q.mean_quality_tier = state.users[u].player.mean_played_tier();
    q.quality_switches = state.users[u].player.quality_switches();
    q.mean_goodput_mbps =
        bits_to_megabits(state.users[u].delivered_bits / config.duration_s);
    q.viewport_miss_ratio =
        state.users[u].miss_count > 0
            ? state.users[u].miss_sum /
                  static_cast<double>(state.users[u].miss_count)
            : 0.0;
    q.mean_m2p_latency_s = state.users[u].m2p.mean();
    q.max_m2p_latency_s = state.users[u].m2p.max();
    result.qoe.users.push_back(q);
  }
  const double total_bits = state.multicast_bits + state.unicast_bits;
  result.multicast_bit_share =
      total_bits > 0.0 ? state.multicast_bits / total_bits : 0.0;
  result.mean_group_size =
      state.group_count > 0
          ? state.group_size_sum / static_cast<double>(state.group_count)
          : 0.0;
  result.custom_beam_uses = state.custom_beam_uses;
  result.stock_beam_uses = state.stock_beam_uses;
  result.blockage_forecasts = state.blockage_forecasts;
  result.reflection_switches = state.reflection_switches;
  result.dropped_ticks = state.dropped_ticks;
  result.outage_user_ticks = state.outage_user_ticks;
  result.sls_sweeps = state.sls_sweeps;
  result.sls_outage_ticks = state.sls_outage_ticks;
  result.mean_airtime_utilization =
      config.duration_s > 0.0 ? state.scheduled_airtime / config.duration_s
                              : 0.0;
  if (state.has_faults) {
    RunningStats ttr;
    for (const fault::HealthMonitor& monitor : state.health) {
      for (double episode : monitor.recovery_times()) ttr.add(episode);
      state.freport.health_transitions += monitor.transitions();
    }
    state.freport.recoveries = ttr.count();
    state.freport.mean_time_to_recover_s = ttr.mean();
    state.freport.max_time_to_recover_s = ttr.max();
  }
  result.faults = state.freport;
  // Wire totals + NACK recovery-latency percentiles. The samples were
  // appended in serial delivery order, so the sort (and everything after
  // it) is identical at any worker_threads value.
  if (!state.recovery_samples.empty()) {
    std::vector<double> sorted = state.recovery_samples;
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&](double q) {
      const std::size_t i = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(i, sorted.size() - 1)];
    };
    state.twire.recovery_ms_p50 = at(0.50);
    state.twire.recovery_ms_p99 = at(0.99);
    state.twire.recovery_ms_max = sorted.back();
  }
  result.transport = state.twire;
  result.tiles = state.tiles;
  result.overload = state.oreport;
  return result;
}

Session::Session(SessionConfig config) {
  config.validate();
  impl_ = std::make_unique<Impl>(std::move(config));
}
Session::~Session() = default;
Session::Session(Session&&) noexcept = default;

const SessionConfig& Session::config() const noexcept {
  return impl_->state.config;
}

SessionResult Session::run() { return impl_->run(); }

}  // namespace volcast::core
