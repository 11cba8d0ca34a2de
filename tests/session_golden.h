// Shared fixture for the refactor-equivalence golden suite: the ablation ×
// fault configuration matrix plus a bit-exact text serialization of
// SessionResult. The committed golden file (tests/golden/) was generated
// from the pre-refactor monolithic session loop by gen_session_goldens;
// the staged pipeline must reproduce every byte of it. Regenerate only
// when session behavior changes intentionally:
//
//   build/tests/gen_session_goldens > tests/golden/session_results.golden
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "fault/fault_plan.h"

namespace volcast::core {

struct GoldenCase {
  std::string name;
  SessionConfig config;
};

/// The determinism matrix: every ablation switch, both fault regimes
/// (clean and chaos), small enough that the whole sweep stays in test-suite
/// time. Thread counts are applied by the caller — the serialized result
/// must not depend on them.
inline std::vector<GoldenCase> golden_matrix() {
  SessionConfig base;
  base.user_count = 3;
  base.duration_s = 2.0;
  base.master_points = 30'000;
  base.video_frames = 20;
  base.seed = 7;

  std::vector<GoldenCase> cases;
  auto add = [&](std::string name, auto mutate) {
    SessionConfig c = base;
    mutate(c);
    cases.push_back({std::move(name), std::move(c)});
  };

  add("default", [](SessionConfig&) {});
  add("no_multicast", [](SessionConfig& c) { c.enable_multicast = false; });
  add("grouping_unicast",
      [](SessionConfig& c) { c.grouping = GroupingPolicy::kUnicastOnly; });
  add("grouping_pairs",
      [](SessionConfig& c) { c.grouping = GroupingPolicy::kPairsOnly; });
  add("grouping_exhaustive",
      [](SessionConfig& c) { c.grouping = GroupingPolicy::kExhaustive; });
  add("no_custom_beams",
      [](SessionConfig& c) { c.enable_custom_beams = false; });
  add("reactive_beams",
      [](SessionConfig& c) { c.predictive_beam_tracking = false; });
  add("no_mitigation",
      [](SessionConfig& c) { c.enable_blockage_mitigation = false; });
  add("no_occlusion",
      [](SessionConfig& c) { c.enable_user_occlusion = false; });
  add("adaptation_none",
      [](SessionConfig& c) { c.adaptation = AdaptationPolicy::kNone; });
  add("adaptation_buffer",
      [](SessionConfig& c) { c.adaptation = AdaptationPolicy::kBufferOnly; });
  add("estimator_app",
      [](SessionConfig& c) { c.estimator = BandwidthEstimator::kAppOnly; });
  add("estimator_phy",
      [](SessionConfig& c) { c.estimator = BandwidthEstimator::kPhyOnly; });
  add("two_aps", [](SessionConfig& c) {
    c.ap_count = 2;
    c.user_count = 4;
  });
  add("chaos", [](SessionConfig& c) {
    c.ap_count = 2;
    c.user_count = 4;
    fault::ChaosConfig chaos;
    chaos.seed = c.seed;
    chaos.duration_s = c.duration_s;
    chaos.user_count = c.user_count;
    chaos.ap_count = c.ap_count;
    chaos.intensity = 1.2;
    c.fault_plan = fault::random_plan(chaos);
  });
  // Packet-wire policies, with correlated burst loss so the loss /
  // FEC-repair / NACK machinery is all on the golden path.
  auto burst_chaos = [](SessionConfig& c) {
    fault::ChaosConfig chaos;
    chaos.seed = c.seed;
    chaos.duration_s = c.duration_s;
    chaos.user_count = c.user_count;
    chaos.ap_count = c.ap_count;
    chaos.intensity = 0.8;
    chaos.burst_loss_probability = 0.5;
    c.fault_plan = fault::random_plan(chaos);
  };
  add("wire_fec", [&](SessionConfig& c) {
    c.policy_overrides["transport"] = "fec";
    burst_chaos(c);
  });
  add("wire_nack", [&](SessionConfig& c) {
    c.policy_overrides["transport"] = "nack";
    burst_chaos(c);
  });
  add("wire_hybrid", [&](SessionConfig& c) {
    c.policy_overrides["transport"] = "hybrid";
    burst_chaos(c);
  });
  // Dense audiences, where the greedy group search has many candidates
  // and the rate-bound skip does most of its work.
  add("crowd12", [](SessionConfig& c) { c.user_count = 12; });
  add("crowd12_pairs", [](SessionConfig& c) {
    c.user_count = 12;
    c.grouping = GroupingPolicy::kPairsOnly;
  });
  return cases;
}

/// Doubles as raw IEEE-754 bits: bit-exact, culture-independent, and a
/// mismatch in any bit is visible.
inline std::string golden_bits(double v) {
  std::ostringstream out;
  out << std::hex << std::bit_cast<std::uint64_t>(v);
  return out.str();
}

/// One line per field; every field of SessionResult (including the fault
/// report) participates.
inline std::string serialize_result(const std::string& name,
                                    const SessionResult& r) {
  std::ostringstream out;
  auto field = [&](const char* key, const std::string& value) {
    out << name << '.' << key << " = " << value << '\n';
  };
  auto dbl = [&](const char* key, double v) { field(key, golden_bits(v)); };
  auto num = [&](const char* key, std::size_t v) {
    field(key, std::to_string(v));
  };

  dbl("qoe.duration_s", r.qoe.duration_s);
  num("qoe.users", r.qoe.users.size());
  for (std::size_t u = 0; u < r.qoe.users.size(); ++u) {
    const auto& q = r.qoe.users[u];
    const std::string prefix = "user" + std::to_string(u) + ".";
    auto udbl = [&](const char* key, double v) {
      field((prefix + key).c_str(), golden_bits(v));
    };
    udbl("displayed_fps", q.displayed_fps);
    udbl("stall_time_s", q.stall_time_s);
    udbl("stall_ratio", q.stall_ratio);
    udbl("mean_quality_tier", q.mean_quality_tier);
    field((prefix + "quality_switches").c_str(),
          std::to_string(q.quality_switches));
    udbl("mean_goodput_mbps", q.mean_goodput_mbps);
    udbl("viewport_miss_ratio", q.viewport_miss_ratio);
    udbl("mean_m2p_latency_s", q.mean_m2p_latency_s);
    udbl("max_m2p_latency_s", q.max_m2p_latency_s);
  }
  dbl("multicast_bit_share", r.multicast_bit_share);
  dbl("mean_group_size", r.mean_group_size);
  num("custom_beam_uses", r.custom_beam_uses);
  num("stock_beam_uses", r.stock_beam_uses);
  num("blockage_forecasts", r.blockage_forecasts);
  num("reflection_switches", r.reflection_switches);
  num("dropped_ticks", r.dropped_ticks);
  num("outage_user_ticks", r.outage_user_ticks);
  num("sls_sweeps", r.sls_sweeps);
  num("sls_outage_ticks", r.sls_outage_ticks);
  dbl("mean_airtime_utilization", r.mean_airtime_utilization);
  num("faults.faults_injected", r.faults.faults_injected);
  num("faults.recoveries", r.faults.recoveries);
  dbl("faults.mean_time_to_recover_s", r.faults.mean_time_to_recover_s);
  dbl("faults.max_time_to_recover_s", r.faults.max_time_to_recover_s);
  dbl("faults.fault_rebuffer_s", r.faults.fault_rebuffer_s);
  num("faults.group_reformations", r.faults.group_reformations);
  num("faults.concealed_frames", r.faults.concealed_frames);
  num("faults.skipped_frames", r.faults.skipped_frames);
  num("faults.probe_retries", r.faults.probe_retries);
  num("faults.fallback_stock_beams", r.faults.fallback_stock_beams);
  num("faults.fallback_reflection_beams", r.faults.fallback_reflection_beams);
  num("faults.fallback_tier_drops", r.faults.fallback_tier_drops);
  num("faults.degraded_user_ticks", r.faults.degraded_user_ticks);
  num("faults.unhealthy_user_ticks", r.faults.unhealthy_user_ticks);
  num("faults.health_transitions", r.faults.health_transitions);
  num("transport.trains", static_cast<std::size_t>(r.transport.trains));
  num("transport.tiles", static_cast<std::size_t>(r.transport.tiles));
  num("transport.data_packets",
      static_cast<std::size_t>(r.transport.data_packets));
  num("transport.parity_packets",
      static_cast<std::size_t>(r.transport.parity_packets));
  num("transport.lost_packets",
      static_cast<std::size_t>(r.transport.lost_packets));
  num("transport.retransmitted_packets",
      static_cast<std::size_t>(r.transport.retransmitted_packets));
  num("transport.nacks", static_cast<std::size_t>(r.transport.nacks));
  num("transport.fec_recovered_tiles",
      static_cast<std::size_t>(r.transport.fec_recovered_tiles));
  num("transport.nack_recovered_tiles",
      static_cast<std::size_t>(r.transport.nack_recovered_tiles));
  num("transport.deadline_missed_tiles",
      static_cast<std::size_t>(r.transport.deadline_missed_tiles));
  dbl("transport.residual_loss_mean", r.transport.residual_loss_mean);
  dbl("transport.recovery_ms_p50", r.transport.recovery_ms_p50);
  dbl("transport.recovery_ms_p99", r.transport.recovery_ms_p99);
  dbl("transport.recovery_ms_max", r.transport.recovery_ms_max);
  return out.str();
}

}  // namespace volcast::core
