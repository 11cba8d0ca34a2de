// The SessionResult field list, written once. The checkpoint codec, the
// tests' bit-exact comparator and the session golden writer all walk it,
// so a field added here is persisted, compared and pinned in one step,
// and nothing else in the tree lists the record field by field.
//
// The order is the checkpoint record's byte order (kCheckpointVersion 6);
// the names are the golden file's keys. Reordering the list changes the
// checkpoint bytes and needs a version bump.
#pragma once

#include <type_traits>
#include <vector>

#include "core/session.h"

namespace volcast::core {

/// True for the `qoe.users` field, the one field that is not a scalar.
template <class T>
inline constexpr bool kIsUserRows =
    std::is_same_v<std::remove_cvref_t<T>, std::vector<sim::UserQoe>>;

/// The fields of one per-user QoE row, in record order. Keys are relative
/// to the row: the golden writes them as `user<i>.<key>`.
template <class Row, class Visitor>
constexpr void visit_user_fields(Row& u, Visitor&& visit) {
  visit("user", u.user);
  visit("displayed_fps", u.displayed_fps);
  visit("stall_time_s", u.stall_time_s);
  visit("stall_ratio", u.stall_ratio);
  visit("mean_quality_tier", u.mean_quality_tier);
  visit("quality_switches", u.quality_switches);
  visit("mean_goodput_mbps", u.mean_goodput_mbps);
  visit("viewport_miss_ratio", u.viewport_miss_ratio);
  visit("mean_m2p_latency_s", u.mean_m2p_latency_s);
  visit("max_m2p_latency_s", u.max_m2p_latency_s);
}

/// Calls `visit(key, field)` for every field of `r` (a SessionResult,
/// const or not) in record order. Scalars arrive as double, std::size_t,
/// std::uint64_t or std::uint8_t references; the per-user rows arrive as
/// one call with the whole `qoe.users` vector, whose rows the visitor
/// walks with visit_user_fields.
template <class Result, class Visitor>
constexpr void visit_fields(Result& r, Visitor&& visit) {
  visit("qoe.duration_s", r.qoe.duration_s);
  visit("qoe.users", r.qoe.users);
  visit("multicast_bit_share", r.multicast_bit_share);
  visit("mean_group_size", r.mean_group_size);
  visit("custom_beam_uses", r.custom_beam_uses);
  visit("stock_beam_uses", r.stock_beam_uses);
  visit("blockage_forecasts", r.blockage_forecasts);
  visit("reflection_switches", r.reflection_switches);
  visit("dropped_ticks", r.dropped_ticks);
  visit("outage_user_ticks", r.outage_user_ticks);
  visit("sls_sweeps", r.sls_sweeps);
  visit("sls_outage_ticks", r.sls_outage_ticks);
  visit("mean_airtime_utilization", r.mean_airtime_utilization);

  auto& f = r.faults;
  visit("faults.faults_injected", f.faults_injected);
  visit("faults.recoveries", f.recoveries);
  visit("faults.mean_time_to_recover_s", f.mean_time_to_recover_s);
  visit("faults.max_time_to_recover_s", f.max_time_to_recover_s);
  visit("faults.fault_rebuffer_s", f.fault_rebuffer_s);
  visit("faults.group_reformations", f.group_reformations);
  visit("faults.concealed_frames", f.concealed_frames);
  visit("faults.skipped_frames", f.skipped_frames);
  visit("faults.probe_retries", f.probe_retries);
  visit("faults.fallback_stock_beams", f.fallback_stock_beams);
  visit("faults.fallback_reflection_beams", f.fallback_reflection_beams);
  visit("faults.fallback_tier_drops", f.fallback_tier_drops);
  visit("faults.degraded_user_ticks", f.degraded_user_ticks);
  visit("faults.unhealthy_user_ticks", f.unhealthy_user_ticks);
  visit("faults.health_transitions", f.health_transitions);

  auto& w = r.transport;
  visit("transport.trains", w.trains);
  visit("transport.tiles", w.tiles);
  visit("transport.data_packets", w.data_packets);
  visit("transport.parity_packets", w.parity_packets);
  visit("transport.lost_packets", w.lost_packets);
  visit("transport.retransmitted_packets", w.retransmitted_packets);
  visit("transport.nacks", w.nacks);
  visit("transport.fec_recovered_tiles", w.fec_recovered_tiles);
  visit("transport.nack_recovered_tiles", w.nack_recovered_tiles);
  visit("transport.deadline_missed_tiles", w.deadline_missed_tiles);
  visit("transport.residual_loss_mean", w.residual_loss_mean);
  visit("transport.recovery_ms_p50", w.recovery_ms_p50);
  visit("transport.recovery_ms_p99", w.recovery_ms_p99);
  visit("transport.recovery_ms_max", w.recovery_ms_max);

  auto& t = r.tiles;
  visit("tiles.requests", t.requests);
  visit("tiles.encoded_tiles", t.encoded_tiles);
  visit("tiles.stitched_tiles", t.stitched_tiles);
  visit("tiles.encoded_bytes", t.encoded_bytes);
  visit("tiles.stitched_bytes", t.stitched_bytes);

  auto& o = r.overload;
  visit("overload.green_ticks", o.green_ticks);
  visit("overload.yellow_ticks", o.yellow_ticks);
  visit("overload.orange_ticks", o.orange_ticks);
  visit("overload.red_ticks", o.red_ticks);
  visit("overload.transitions", o.transitions);
  visit("overload.tier_capped_user_ticks", o.tier_capped_user_ticks);
  visit("overload.cells_shed", o.cells_shed);
  visit("overload.deferred_tiles", o.deferred_tiles);
  visit("overload.peak_utilization", o.peak_utilization);
  visit("overload.final_level", o.final_level);
}

}  // namespace volcast::core
