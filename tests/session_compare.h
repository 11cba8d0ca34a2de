// Shared bit-exact SessionResult comparison for determinism tests: the
// worker-thread contract and the telemetry subsystem both promise
// bit-identical outcomes (any thread count, telemetry on or off), so their
// tests assert through the same comparator.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/fleet.h"
#include "core/session.h"

namespace volcast::core {

// Bit-exact double comparison: 2.0 * 0.5 == 1.0 is not enough, the bits
// must match (NaN-safe, -0.0 != +0.0).
#define EXPECT_BITEQ(a, b)                                       \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a),                     \
            std::bit_cast<std::uint64_t>(b))                     \
      << #a " = " << (a) << " vs " << (b)

inline void expect_identical(const SessionResult& x, const SessionResult& y) {
  EXPECT_BITEQ(x.qoe.duration_s, y.qoe.duration_s);
  ASSERT_EQ(x.qoe.users.size(), y.qoe.users.size());
  for (std::size_t u = 0; u < x.qoe.users.size(); ++u) {
    const auto& a = x.qoe.users[u];
    const auto& b = y.qoe.users[u];
    EXPECT_EQ(a.user, b.user);
    EXPECT_BITEQ(a.displayed_fps, b.displayed_fps);
    EXPECT_BITEQ(a.stall_time_s, b.stall_time_s);
    EXPECT_BITEQ(a.stall_ratio, b.stall_ratio);
    EXPECT_BITEQ(a.mean_quality_tier, b.mean_quality_tier);
    EXPECT_EQ(a.quality_switches, b.quality_switches);
    EXPECT_BITEQ(a.mean_goodput_mbps, b.mean_goodput_mbps);
    EXPECT_BITEQ(a.viewport_miss_ratio, b.viewport_miss_ratio);
    EXPECT_BITEQ(a.mean_m2p_latency_s, b.mean_m2p_latency_s);
    EXPECT_BITEQ(a.max_m2p_latency_s, b.max_m2p_latency_s);
  }
  EXPECT_BITEQ(x.multicast_bit_share, y.multicast_bit_share);
  EXPECT_BITEQ(x.mean_group_size, y.mean_group_size);
  EXPECT_EQ(x.custom_beam_uses, y.custom_beam_uses);
  EXPECT_EQ(x.stock_beam_uses, y.stock_beam_uses);
  EXPECT_EQ(x.blockage_forecasts, y.blockage_forecasts);
  EXPECT_EQ(x.reflection_switches, y.reflection_switches);
  EXPECT_EQ(x.dropped_ticks, y.dropped_ticks);
  EXPECT_EQ(x.outage_user_ticks, y.outage_user_ticks);
  EXPECT_EQ(x.sls_sweeps, y.sls_sweeps);
  EXPECT_EQ(x.sls_outage_ticks, y.sls_outage_ticks);
  EXPECT_BITEQ(x.mean_airtime_utilization, y.mean_airtime_utilization);

  EXPECT_EQ(x.faults.faults_injected, y.faults.faults_injected);
  EXPECT_EQ(x.faults.recoveries, y.faults.recoveries);
  EXPECT_BITEQ(x.faults.mean_time_to_recover_s,
               y.faults.mean_time_to_recover_s);
  EXPECT_BITEQ(x.faults.max_time_to_recover_s, y.faults.max_time_to_recover_s);
  EXPECT_BITEQ(x.faults.fault_rebuffer_s, y.faults.fault_rebuffer_s);
  EXPECT_EQ(x.faults.group_reformations, y.faults.group_reformations);
  EXPECT_EQ(x.faults.concealed_frames, y.faults.concealed_frames);
  EXPECT_EQ(x.faults.skipped_frames, y.faults.skipped_frames);
  EXPECT_EQ(x.faults.probe_retries, y.faults.probe_retries);
  EXPECT_EQ(x.faults.fallback_stock_beams, y.faults.fallback_stock_beams);
  EXPECT_EQ(x.faults.fallback_reflection_beams,
            y.faults.fallback_reflection_beams);
  EXPECT_EQ(x.faults.fallback_tier_drops, y.faults.fallback_tier_drops);
  EXPECT_EQ(x.faults.degraded_user_ticks, y.faults.degraded_user_ticks);
  EXPECT_EQ(x.faults.unhealthy_user_ticks, y.faults.unhealthy_user_ticks);
  EXPECT_EQ(x.faults.health_transitions, y.faults.health_transitions);

  EXPECT_EQ(x.transport.trains, y.transport.trains);
  EXPECT_EQ(x.transport.tiles, y.transport.tiles);
  EXPECT_EQ(x.transport.data_packets, y.transport.data_packets);
  EXPECT_EQ(x.transport.parity_packets, y.transport.parity_packets);
  EXPECT_EQ(x.transport.lost_packets, y.transport.lost_packets);
  EXPECT_EQ(x.transport.retransmitted_packets,
            y.transport.retransmitted_packets);
  EXPECT_EQ(x.transport.nacks, y.transport.nacks);
  EXPECT_EQ(x.transport.fec_recovered_tiles, y.transport.fec_recovered_tiles);
  EXPECT_EQ(x.transport.nack_recovered_tiles,
            y.transport.nack_recovered_tiles);
  EXPECT_EQ(x.transport.deadline_missed_tiles,
            y.transport.deadline_missed_tiles);
  EXPECT_BITEQ(x.transport.residual_loss_mean, y.transport.residual_loss_mean);
  EXPECT_BITEQ(x.transport.recovery_ms_p50, y.transport.recovery_ms_p50);
  EXPECT_BITEQ(x.transport.recovery_ms_p99, y.transport.recovery_ms_p99);
  EXPECT_BITEQ(x.transport.recovery_ms_max, y.transport.recovery_ms_max);

  EXPECT_EQ(x.overload.green_ticks, y.overload.green_ticks);
  EXPECT_EQ(x.overload.yellow_ticks, y.overload.yellow_ticks);
  EXPECT_EQ(x.overload.orange_ticks, y.overload.orange_ticks);
  EXPECT_EQ(x.overload.red_ticks, y.overload.red_ticks);
  EXPECT_EQ(x.overload.transitions, y.overload.transitions);
  EXPECT_EQ(x.overload.tier_capped_user_ticks,
            y.overload.tier_capped_user_ticks);
  EXPECT_EQ(x.overload.cells_shed, y.overload.cells_shed);
  EXPECT_EQ(x.overload.deferred_tiles, y.overload.deferred_tiles);
  EXPECT_BITEQ(x.overload.peak_utilization, y.overload.peak_utilization);
  EXPECT_EQ(x.overload.final_level, y.overload.final_level);
}

/// Tile-report equality, separate from expect_identical: ablation tests
/// compare tiling=off against tiling=shared runs whose *simulation* fields
/// must match while the tile accounting legitimately differs.
inline void expect_tiles_identical(const SessionResult& x,
                                   const SessionResult& y) {
  EXPECT_EQ(x.tiles.requests, y.tiles.requests);
  EXPECT_EQ(x.tiles.encoded_tiles, y.tiles.encoded_tiles);
  EXPECT_EQ(x.tiles.stitched_tiles, y.tiles.stitched_tiles);
  EXPECT_EQ(x.tiles.encoded_bytes, y.tiles.encoded_bytes);
  EXPECT_EQ(x.tiles.stitched_bytes, y.tiles.stitched_bytes);
}

inline void expect_outcome_identical(const SlotOutcome& a,
                                     const SlotOutcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error_class, b.error_class);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.backoff_ticks, b.backoff_ticks);
  EXPECT_EQ(a.admission, b.admission);
  EXPECT_EQ(a.admission_wait_ticks, b.admission_wait_ticks);
}

/// Bit-exact FleetResult comparison, supervision records included: the
/// fleet promises identical outcomes at any `parallel_sessions` value and
/// after any checkpoint/resume split.
inline void expect_fleet_identical(const FleetResult& x, const FleetResult& y) {
  ASSERT_EQ(x.sessions.size(), y.sessions.size());
  for (std::size_t k = 0; k < x.sessions.size(); ++k) {
    expect_identical(x.sessions[k], y.sessions[k]);
    expect_tiles_identical(x.sessions[k], y.sessions[k]);
  }
  ASSERT_EQ(x.outcomes.size(), y.outcomes.size());
  for (std::size_t k = 0; k < x.outcomes.size(); ++k)
    expect_outcome_identical(x.outcomes[k], y.outcomes[k]);
  EXPECT_EQ(x.aborted_slots, y.aborted_slots);
  EXPECT_EQ(x.retried_slots, y.retried_slots);
  EXPECT_EQ(x.quarantined_slots, y.quarantined_slots);
  EXPECT_EQ(x.denied_slots, y.denied_slots);
  EXPECT_EQ(x.queued_slots, y.queued_slots);
  EXPECT_EQ(x.total_users, y.total_users);
  EXPECT_EQ(x.supported_users, y.supported_users);
  EXPECT_BITEQ(x.mean_displayed_fps, y.mean_displayed_fps);
  EXPECT_BITEQ(x.mean_stall_ratio, y.mean_stall_ratio);
  EXPECT_BITEQ(x.mean_quality_tier, y.mean_quality_tier);
  EXPECT_BITEQ(x.p5_displayed_fps, y.p5_displayed_fps);
  EXPECT_BITEQ(x.p50_displayed_fps, y.p50_displayed_fps);
  EXPECT_BITEQ(x.p95_displayed_fps, y.p95_displayed_fps);
  EXPECT_BITEQ(x.p95_stall_time_s, y.p95_stall_time_s);
  EXPECT_EQ(x.tiles.requests, y.tiles.requests);
  EXPECT_EQ(x.tiles.encoded_tiles, y.tiles.encoded_tiles);
  EXPECT_EQ(x.tiles.stitched_tiles, y.tiles.stitched_tiles);
  EXPECT_EQ(x.tiles.encoded_bytes, y.tiles.encoded_bytes);
  EXPECT_EQ(x.tiles.stitched_bytes, y.tiles.stitched_bytes);
}

}  // namespace volcast::core
