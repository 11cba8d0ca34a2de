// Shared fixture for the session golden suite: the ablation × fault
// configuration matrix plus a bit-exact text serialization of
// SessionResult. The committed golden file (tests/golden/) pins every
// SessionResult field of every case, one line each, as listed in
// core/result_fields.h; the session must reproduce every byte of it.
// Regenerate only when session behavior, or the field list, changes
// intentionally:
//
//   build/tests/gen_session_goldens > tests/golden/session_results.golden
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/result_fields.h"
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
  // Brownout and shared tiling: an encode budget small enough that the
  // governor leaves green, so the overload and stitched-tile counters
  // carry values the golden pins.
  add("brownout_shared", [](SessionConfig& c) {
    c.user_count = 4;
    c.policy_overrides["tiling"] = "shared";
    c.overload.enabled = true;
    c.overload.encode_budget_bytes = 8.0e4;
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

/// One `name.key = value` line per SessionResult field, in the order of
/// core/result_fields.h: doubles as raw bits, integers in decimal, and the
/// per-user rows as `name.user<i>.<key>` after `name.qoe.users`.
inline std::string serialize_result(const std::string& name,
                                    const SessionResult& r) {
  std::ostringstream out;
  auto line = [&](const std::string& key, const auto& v) {
    out << name << '.' << key << " = ";
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>, double>)
      out << golden_bits(v);
    else
      out << static_cast<std::uint64_t>(v);
    out << '\n';
  };
  visit_fields(r, [&](const char* key, const auto& v) {
    if constexpr (kIsUserRows<decltype(v)>) {
      line(key, v.size());
      for (std::size_t u = 0; u < v.size(); ++u)
        visit_user_fields(v[u], [&](const char* field, const auto& x) {
          line("user" + std::to_string(u) + "." + field, x);
        });
    } else {
      line(key, v);
    }
  });
  return out.str();
}

}  // namespace volcast::core
