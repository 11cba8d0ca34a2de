// End-to-end multi-user volumetric streaming session: the system the
// paper's research agenda adds up to.
//
// Every frame interval the server (edge) side:
//   1. observes all users' 6DoF poses and runs the joint viewport
//      predictor (occlusion-aware visibility + blockage forecasts),
//   2. adapts each user's quality tier from buffer depth and the
//      cross-layer bandwidth prediction,
//   3. forms multicast groups by viewport similarity under T_m(k) <= 1/F,
//   4. designs per-group beams (custom multi-lobe, probed, with stock
//      fallback) and per-user unicast beams,
//   5. transmits over the simulated mmWave channel (bodies, shadowing,
//      partial blockage), delivering frames into per-client players,
//   6. applies proactive blockage mitigation (prefetch / reflection beam).
//
// Every stage has an ablation switch so the benchmark harness can turn the
// paper's ideas off one at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bandwidth_predictor.h"
#include "core/grouping.h"
#include "core/overload/governor.h"
#include "core/rate_adapter.h"
#include "core/testbed.h"
#include "fault/fault_plan.h"
#include "fault/health.h"
#include "pointcloud/tile_report.h"
#include "sim/qoe.h"
#include "trace/mobility.h"
#include "transport/wire.h"

namespace volcast::obs {
class Telemetry;
}  // namespace volcast::obs

namespace volcast::core {

class WorkloadBundle;  // core/workload_bundle.h

/// One row of the per-tick session timeline, delivered to the optional
/// tick observer: everything needed to plot a session (buffer dynamics,
/// link quality, quality-tier decisions) without recompiling.
struct TickSample {
  double t_s = 0.0;
  std::size_t user = 0;
  double buffer_s = 0.0;
  std::size_t tier = 0;
  double rss_dbm = 0.0;
  double rate_mbps = 0.0;
  bool blockage_forecast = false;
};

/// Air-queue backlog (seconds) beyond which a tick's fetches are dropped
/// (frames skipped) instead of queued.
inline constexpr double kMaxBacklogS = 0.25;

/// Full session configuration.
struct SessionConfig {
  std::size_t user_count = 4;
  trace::DeviceType device = trace::DeviceType::kHeadset;
  double duration_s = 10.0;
  double fps = 30.0;

  /// Content scale. The default is reduced from the paper's 550K points so
  /// unit tests and quick benches run in seconds; Table-1-class benches
  /// override it.
  std::size_t master_points = 120'000;
  std::size_t video_frames = 60;
  double cell_size_m = 0.5;
  std::size_t start_tier = 2;  // highest of the three paper tiers

  std::uint64_t seed = 1;
  /// Content identity override. 0 (the default) derives the video seed
  /// from `seed` as before, so every session streams its own video. A
  /// nonzero value pins the video regardless of `seed` — this is what
  /// lets fleet slots (seed + k) share one WorkloadBundle: same content,
  /// different audiences.
  std::uint64_t content_seed = 0;
  double prediction_horizon_s = 0.1;
  /// Worker threads for building the video store when the session builds
  /// its own bundle (unused with a shared `bundle`). Ticks always run
  /// serially. 0 = hardware concurrency, 1 = fully serial. The
  /// SessionResult is bit-identical for every value, because the store
  /// tables are.
  std::size_t worker_threads = 0;
  /// Client decode throughput in points/s. The paper's 550K tier is "the
  /// highest point density that can be decompressed by Draco at 30 FPS" —
  /// i.e. ~16.5M points/s; decoded frames become playable only after their
  /// decode latency.
  double decode_points_per_second = 16.5e6;
  /// Angular spread of the audience arc around the content. The default
  /// (2 rad) is the user-study arc on the far side from the primary AP;
  /// 2*pi surrounds the content — the regime where multiple APs achieve
  /// spatial reuse (Section 5).
  double audience_spread_rad = 2.0;

  /// When non-empty, user poses replay these traces (content-local
  /// coordinates, looped) instead of the built-in mobility models; must
  /// contain at least `user_count` traces. This is how real captured 6DoF
  /// trajectories are fed into the system.
  std::vector<trace::Trace> replay_traces;

  // --- ablation switches -------------------------------------------------
  bool enable_multicast = true;
  GroupingPolicy grouping = GroupingPolicy::kGreedyIoU;
  double grouping_min_iou = 0.3;
  bool enable_custom_beams = true;
  /// Predictive beam tracking (the paper: "use the predicted 6DoF motion
  /// information at the server to select the individual beams ... without
  /// beam searching"). When false, unicast beams come from reactive
  /// sector-level sweeps: each sweep costs the 802.11ad SLS outage
  /// (5-20 ms) and the link rides a stale sector in between.
  bool predictive_beam_tracking = true;
  /// Reactive mode only: a re-sweep triggers when the serving sector falls
  /// this many dB below the best available sector.
  double sls_staleness_db = 6.0;
  bool enable_user_occlusion = true;
  bool enable_blockage_mitigation = true;
  AdaptationPolicy adaptation = AdaptationPolicy::kCrossLayer;
  BandwidthEstimator estimator = BandwidthEstimator::kCrossLayer;
  std::size_t ap_count = 1;

  /// Overload-control knobs (core/overload/governor.h). `overload.enabled`
  /// selects the "brownout" policy for the overload pipeline slot; the
  /// default keeps the "off" no-op stage and the session byte-identical to
  /// a build without the overload subsystem. Budgets are logical, so
  /// results stay bit-identical at any worker_threads value either way.
  overload::OverloadConfig overload{};

  /// Pipeline-slot policy overrides by name, applied on top of the
  /// defaults the ablation switches select: e.g. {"grouping",
  /// "pairs_only"} or {"beam", "reactive"}. Keys are the eight slot names
  /// ("overload", "prediction", "beam", "adaptation", "mitigation",
  /// "grouping", "tiling", "transport"); values are names registered in the stage policy
  /// registry (core/stages/registry.h). validate() rejects unknown slots
  /// and names. This is what `volcast_sim --policy grouping=greedy_iou`
  /// sets.
  std::map<std::string, std::string> policy_overrides;

  /// Called once per user per tick with the live session state; leave
  /// empty for no overhead. Used by volcast_sim --timeline to export CSVs.
  std::function<void(const TickSample&)> tick_observer;

  /// Optional cross-layer telemetry sink (see obs/telemetry.h): per-stage
  /// spans with deterministic logical costs, cross-layer events, and metric
  /// counters across viewport / mmwave / MAC / rate / player layers. Null
  /// (the default) disables telemetry entirely — the session then does one
  /// pointer test per stage and the SessionResult is bit-identical either
  /// way, at any worker_threads value. The sink must outlive the session
  /// and is not flushed here: call Telemetry::write_jsonl after run().
  obs::Telemetry* telemetry = nullptr;

  /// Optional shared workload bundle (core/workload_bundle.h): the
  /// immutable setup artifacts — generated video, cell grid, VideoStore
  /// codec tables, occupancy precompute — built complete by
  /// WorkloadBundle::build and read by every session that shares it. Null
  /// (the default) makes the session build a private bundle, which is the
  /// legacy per-session setup path, bit-identical in every result.
  /// validate() rejects a bundle whose WorkloadKey does not match this
  /// config; run_fleet fills this in automatically when content_seed pins
  /// the content.
  std::shared_ptr<const WorkloadBundle> bundle;

  TestbedConfig testbed{};
  /// Per-burst MAC costs applied to every scheduled transmission.
  mac::MacOverheads mac_overheads{};

  /// Logical deadline for the whole run, in ticks (0 = unlimited). When
  /// the tick loop would start tick `tick_budget`, run() aborts with
  /// core::DeadlineExceeded instead — the fleet supervisor's deterministic
  /// stand-in for a wall-clock watchdog (see core/supervisor.h). Purely a
  /// budget: values at or above duration_s * fps change nothing.
  std::size_t tick_budget = 0;

  /// Timed fault events injected into the run (empty = no faults; the
  /// session then behaves bit-identically to a build without the fault
  /// subsystem). See fault/fault_plan.h.
  fault::FaultPlan fault_plan;

  /// Checks the whole configuration up front; throws std::invalid_argument
  /// with one clear message per violated rule. Session's constructor calls
  /// this, but callers building configs incrementally can call it early.
  void validate() const;
};

/// Session outcome: per-user QoE plus system-level counters.
struct SessionResult {
  sim::SessionQoe qoe;
  double multicast_bit_share = 0.0;   // fraction of bits delivered multicast
  double mean_group_size = 0.0;       // members per scheduled group
  std::size_t custom_beam_uses = 0;
  std::size_t stock_beam_uses = 0;
  std::size_t blockage_forecasts = 0;
  std::size_t reflection_switches = 0;
  std::size_t dropped_ticks = 0;      // fetch rounds skipped due to backlog
  std::size_t outage_user_ticks = 0;  // user-ticks lost to deep blockage
  std::size_t sls_sweeps = 0;         // reactive beam searches performed
  std::size_t sls_outage_ticks = 0;   // user-ticks spent sweeping (no data)
  double mean_airtime_utilization = 0.0;  // scheduled airtime / wall time
  /// Fault-injection recovery metrics (all zero with an empty FaultPlan
  /// and the default transport policy; wire policies also count frames the
  /// packet wire failed to recover as concealed/skipped here).
  fault::FaultReport faults;
  /// Packet-wire totals (all zero under the default goodput transport
  /// policy): packets sent/lost, FEC and NACK recoveries, deadline misses,
  /// residual loss after FEC, recovery-latency percentiles.
  transport::TransportReport transport;
  /// Tile assembly totals (all zero under the default "off" tiling policy).
  /// Deterministic first-touch accounting: under "shared", encoded_tiles
  /// counts distinct (frame, tier, cell) keys this session touched first,
  /// stitched_tiles the repeats — regardless of thread count or what
  /// other fleet slots did.
  vv::TileReport tiles;
  /// Brownout accounting (all zero under the default "off" overload
  /// policy): per-level tick counts, shed totals, peak utilization, and
  /// the final level (green proves recovery after pressure ends).
  overload::OverloadReport overload;
};

/// Runs one configured session; construction precomputes the video store.
class Session {
 public:
  explicit Session(SessionConfig config);
  ~Session();
  Session(Session&&) noexcept;

  [[nodiscard]] const SessionConfig& config() const noexcept;

  /// Simulates the whole session and returns the outcome. Deterministic
  /// for a given config. Single-shot: the run consumes the session's
  /// mutable state (players, predictors, RNG streams), so a second call
  /// throws std::logic_error — construct a fresh Session to re-run.
  [[nodiscard]] SessionResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace volcast::core
