// Session-lifetime state shared by the pipeline stages.
//
// The staged pipeline splits the per-tick work into narrow Stage objects
// (see stage.h); everything that outlives a tick lives here: the
// construction-time components (video store, joint predictor, beam
// designers, multi-AP coordinator), per-user streaming state, the result
// counters, and the run-scoped scratch vectors (air-queue backlogs, AP
// assignment, last tick's beams). TickContext (tick_context.h) carries the
// per-tick products between stages.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "core/beam_designer.h"
#include "core/blockage_mitigator.h"
#include "core/grouping.h"
#include "core/multi_ap.h"
#include "core/session.h"
#include "core/workload_bundle.h"
#include "fault/injector.h"
#include "mmwave/mcs.h"
#include "obs/telemetry.h"
#include "pointcloud/tile_report.h"
#include "pointcloud/video_store.h"
#include "sim/event_queue.h"
#include "sim/player.h"
#include "viewport/joint_predictor.h"

namespace volcast::core {

struct SessionState {
  SessionConfig config;
  MultiApCoordinator coordinator;
  // The immutable workload artifacts. Either the caller's shared bundle
  // (config.bundle — one VideoStore serving every fleet slot) or a private
  // one built here; the reference members below alias into it, so stage
  // code reads them exactly as when the state owned the artifacts.
  std::shared_ptr<const WorkloadBundle> bundle;
  const vv::VideoGenerator& generator;
  const vv::CellGrid& grid;
  const vv::VideoStore& store;
  // Per-video-frame occupancy at the top tier (drives visibility): a view
  // of the store's point table.
  const OccupancyTable occupancy;
  view::JointViewportPredictor joint;
  std::vector<BeamDesigner> designers;  // one per AP
  BlockageMitigator mitigator;

  // Per-user state.
  struct User {
    trace::MobilityModel mobility;
    mmwave::ShadowingProcess shadowing;
    sim::Player player;
    BandwidthPredictor predictor;
    std::size_t tier;
    std::size_t prefetch_credit = 0;
    std::size_t frames_ahead = 0;
    int reflection_ticks = 0;
    mmwave::Awv reflection_awv{};
    double delivered_bits = 0.0;
    bool blockage_forecast = false;
    // Reactive (SLS) beam tracking state.
    mmwave::Awv serving_awv{};
    int sls_remaining_ticks = 0;
    // Viewport prediction quality accounting.
    double miss_sum = 0.0;
    std::size_t miss_count = 0;
    // The decoder is a serial resource: completion time of the last frame.
    double decode_free_at = 0.0;
    // Motion-to-photon accounting (pose -> playable).
    RunningStats m2p{};
    // Fault-recovery state: exponential backoff after failed beam probes,
    // and the frozen position of a stuck sector.
    int probe_backoff_ticks = 0;
    int probe_backoff_next = 1;
    bool was_stuck = false;
    geo::Vec3 stuck_pos{};
    // Packet-wire receiver (sequence numbers, burst-chain state,
    // residual-loss EWMA). Mutated only inside the delivery loop.
    transport::ReceiverState receiver{};
  };
  std::vector<User> users;

  // Fault injection (all inert when the plan is empty).
  fault::FaultInjector injector;
  std::vector<fault::HealthMonitor> health;
  bool has_faults = false;
  fault::FaultReport freport;
  // Per-AP membership signature of the last tick, for counting multicast
  // group reformations under churn / AP faults.
  std::vector<std::vector<std::size_t>> prev_active;

  // Counters for SessionResult.
  double multicast_bits = 0.0;
  double unicast_bits = 0.0;
  double group_size_sum = 0.0;
  std::size_t group_count = 0;
  std::size_t custom_beam_uses = 0;
  std::size_t stock_beam_uses = 0;
  std::size_t blockage_forecasts = 0;
  std::size_t reflection_switches = 0;
  std::size_t dropped_ticks = 0;
  std::size_t outage_user_ticks = 0;
  std::size_t sls_sweeps = 0;
  std::size_t sls_outage_ticks = 0;
  double scheduled_airtime = 0.0;
  // Packet-wire totals (zero under the goodput policy) and the NACK
  // recovery-latency samples the result finalizer turns into percentiles.
  // Both are appended only from the delivery loop, in slot order.
  transport::TransportReport twire;
  std::vector<double> recovery_samples;

  // Tiling-stage state. `tiles` is the deterministic logical report
  // (first-touch accounting; see tiling_stage.h); the seen-bitmap is
  // lazily sized on the shared policy's first tick.
  vv::TileReport tiles;
  std::vector<char> tile_seen;

  // Overload control. `shed` is published by the overload stage each tick
  // (zero-initialized == shed nothing under the "off" policy, so every
  // consumer's guard reduces to the pre-overload code path); `oreport`
  // accumulates the brownout accounting for SessionResult.
  overload::ShedDirectives shed;
  overload::OverloadReport oreport;

  // Telemetry (null = disabled; every hook is one pointer test).
  obs::Telemetry* tel = nullptr;
  obs::Counter* rss_evals = nullptr;
  // The tick link tables' rows built, prices reused and probes screened
  // (mmwave.link_rows, mmwave.rss_reused, mmwave.rss_screened).
  mmwave::LinkCounters link_counters;
  obs::Counter* plan_evals = nullptr;  // grouping.plan_evals
  obs::Counter* plan_hits = nullptr;   // grouping.plan_hits
  obs::Counter* plan_skips = nullptr;  // grouping.plan_skips

  // Storage the ticks reuse, grown on first use (never here, so that it
  // does not count as set-up). What a tick leaves in it never reaches the
  // next tick's results.
  // One link table per AP, rebound to each tick's receivers and bodies by
  // tick_links().
  std::vector<mmwave::LinkTable> link_tables;
  // The Beam stage's unicast design of the user it is pricing.
  GroupBeam unicast_design;
  // The grouping stage's per-AP-round buffers (grouping_stage.cpp).
  struct GroupingScratch {
    /// A candidate group's ordered user list and the beam that priced it.
    struct PricedBeam {
      std::vector<std::size_t> group;
      GroupBeam beam;
    };
    GroupingWorkspace search;
    std::vector<UserState> states;
    // A round's candidates fill priced[0, k) in pricing order; the
    // entries past k are storage kept from busier rounds.
    std::vector<PricedBeam> priced;
    std::vector<std::uint8_t> outside;
    std::vector<std::size_t> others;
    std::vector<std::uint8_t> member_mask;
    std::vector<std::optional<double>> rss_bound;
    std::vector<std::uint8_t> bound_mask;
    std::vector<const view::VisibilityMap*> maps;
    view::VisibilityMap overlap;
  };
  GroupingScratch grouping_scratch;

  // Run-scoped state, initialized by begin_run() before the first tick.
  double dt = 0.0;
  std::size_t horizon_ticks = 0;
  const mmwave::McsTable* mcs = nullptr;
  sim::EventQueue queue;
  std::vector<double> backlog;                // per AP: air-queue depth (s)
  std::vector<std::size_t> assignment;        // user -> serving AP
  // Beams each AP transmitted with last tick: the interference the other
  // APs' users see this tick (beams persist across a frame interval).
  std::vector<mmwave::Awv> concurrent_beams;
  std::vector<std::size_t> prev_tier;
  std::array<bool, 4> ap_up{};
  std::vector<char> fault_fallback;

  explicit SessionState(SessionConfig c);

  /// Resets the run-scoped vectors; called once at the top of run().
  void begin_run();

  [[nodiscard]] std::size_t user_count() const noexcept {
    return config.user_count;
  }

  /// Is this user churned out of the room this tick?
  [[nodiscard]] bool absent(std::size_t u) const {
    return has_faults && injector.user_absent(u);
  }

 private:
  // One designer per AP; built in the initializer list, before the
  // mitigator that holds a reference to the first.
  static std::vector<BeamDesigner> make_designers(
      const SessionConfig& c, const MultiApCoordinator& coordinator);
  static MultiApConfig multi_ap_config(const SessionConfig& c);
  static view::JointPredictorConfig joint_config(const SessionConfig& c,
                                                 const Testbed& tb);
};

/// Bits a user needs for `frame` at `tier` given its visibility map.
/// Shared by the adaptation, grouping and transport stages. `min_lod` is
/// the overload governor's low-saliency floor: cells with LOD at or below
/// it are shed from the demand. The default 0 keeps the exact
/// pre-overload condition (every cell with LOD > 0 counts).
[[nodiscard]] double visible_bits(const view::VisibilityMap& map,
                                  const vv::VideoStore& store,
                                  std::size_t frame, std::size_t tier,
                                  double min_lod = 0.0);

}  // namespace volcast::core
