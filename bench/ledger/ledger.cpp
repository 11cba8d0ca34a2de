// volcast_ledger — the stage ledger: session speed, set-up cost and QoE,
// end to end and per pipeline slot, on one named workload.
//
//   volcast_ledger --workload=crowd16 --seed=1 --seconds=30 --trace=0
//
// Every layer is timed from outside, through public APIs only:
//  * Slot timing: a wrapper policy "timed:<name>" is registered for every
//    policy in the PolicyRegistry, and SessionConfig::policy_overrides
//    routes each slot to the wrapper of the policy it would have run. The
//    wrapper times Stage::run.
//  * Tick timing: the overload slot runs first in every tick, so its
//    wrapper's start time delimits ticks. The untraced pass wraps only that
//    slot: one clock read per tick.
//  * Set-up timing: WorkloadBundle::build, then Session construction with
//    that bundle passed in.
//  * Work counts: the traced pass attaches an obs::Telemetry sink and reads
//    its counters.
//
// Load model: a closed loop. One thread runs sessions 0, 1, 2, ... of the
// seed one after another, and each tick starts when the previous one ends;
// simulated time is decoupled from wall time. A pass runs the workload's
// fixed session set (its first `sessions`) and then keeps adding sessions
// until it has run for --seconds. QoE and the result digest come from the
// fixed set, so they are pure functions of the seed; timings come from
// every session, so more audiences average out.
//
// --trace=0 runs the untraced pass and reports the end-to-end metrics.
// --trace=1 then runs a traced pass of the same length and reports the
// per-layer metrics; both passes must produce equal result digests. The
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a fuller ledger JSON (metrics, digest, host context) is written to
// --out/<workload>.json, with the traced pass's slot spans in
// --out/<workload>.spans.jsonl.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "core/session.h"
#include "core/stages/registry.h"
#include "core/stages/stage.h"
#include "core/workload_bundle.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"

#ifndef VOLCAST_LEDGER_BUILD_TYPE
#define VOLCAST_LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef VOLCAST_LEDGER_CXX_FLAGS
#define VOLCAST_LEDGER_CXX_FLAGS "unknown"
#endif
#ifndef VOLCAST_LEDGER_COMPILER
#define VOLCAST_LEDGER_COMPILER "unknown"
#endif
#ifndef VOLCAST_LEDGER_NATIVE
#define VOLCAST_LEDGER_NATIVE "unknown"
#endif

using namespace volcast;
using namespace volcast::core;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kTimedPrefix = "timed:";
constexpr double kFrameBudgetMs = 1000.0 / 30.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string_view name;
  std::string_view why;
  std::size_t sessions;
  double duration_s;
  std::size_t worker_threads;
  /// True: every session of a run streams one video, so they share one
  /// WorkloadBundle (the fleet case). False: each session brings its own
  /// video and builds its own bundle.
  bool shared_content;
  void (*shape)(SessionConfig&);
};

/// Least number of bundle builds in a pass of a shared-content workload.
constexpr std::size_t kSetupRepeats = 5;

void shape_crowd16(SessionConfig& c) {
  c.user_count = 16;
  c.ap_count = 1;
  c.audience_spread_rad = 2.0;
}

void shape_surround_wire(SessionConfig& c) {
  c.user_count = 8;
  c.ap_count = 2;
  c.audience_spread_rad = 6.283185307179586;
  c.policy_overrides["tiling"] = "shared";
  c.policy_overrides["transport"] = "hybrid";
  c.overload.enabled = true;
  fault::ChaosConfig chaos;
  chaos.seed = c.seed;
  chaos.duration_s = c.duration_s;
  chaos.user_count = c.user_count;
  chaos.ap_count = c.ap_count;
  chaos.burst_loss_probability = 0.3;
  c.fault_plan = fault::random_plan(chaos);
}

void shape_unicast_short(SessionConfig& c) {
  c.user_count = 4;
  c.enable_multicast = false;
  c.enable_custom_beams = false;
  c.enable_blockage_mitigation = false;
  c.adaptation = AdaptationPolicy::kBufferOnly;
  c.estimator = BandwidthEstimator::kAppOnly;
}

constexpr std::array<Workload, 3> kWorkloads = {{
    {"crowd16",
     "16 users on 1 AP with every default: dense multicast, where grouping "
     "and group beam design take most of each tick",
     24, 2.0, 2, true, shape_crowd16},
    {"surround_wire",
     "8 users around 2 APs with shared tiling, the packet wire, brownout and "
     "burst loss: tiling and many small per-AP groups do the work",
     40, 2.0, 1, true, shape_surround_wire},
    {"unicast_short",
     "4-user unicast baseline in 1.5 s sessions that each build their own "
     "content: set-up dominates and grouping idles, the no-change control",
     40, 1.5, 1, false, shape_unicast_short},
}};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

// Session i of ledger seed S runs with seed 1e6*S + i, so two ledger seeds
// share no session; a shared-content run streams video seed 1e6*S + 999999.
std::uint64_t session_seed(std::uint64_t seed, std::size_t i) {
  return 1'000'000 * seed + i;
}

SessionConfig make_config(const Workload& w, std::uint64_t ledger_seed,
                          std::uint64_t seed, double duration_s) {
  SessionConfig c;
  c.seed = seed;
  if (w.shared_content) c.content_seed = session_seed(ledger_seed, 999'999);
  c.duration_s = duration_s;
  c.master_points = 120'000;
  c.video_frames = 30;
  c.worker_threads = w.worker_threads;
  w.shape(c);
  return c;
}

// --- slot timing ------------------------------------------------------------

struct SlotTime {
  double start_us = 0.0;  // since the pass epoch
  double dur_us = 0.0;
};

/// Filled by the timed wrappers of the session that is running now.
struct SlotClock {
  bool traced = false;
  Clock::time_point epoch;
  std::vector<Clock::time_point> tick_start;
  std::vector<std::array<SlotTime, kStageKindCount>> slots;  // traced only

  void reset(bool trace) {
    traced = trace;
    tick_start.clear();
    slots.clear();
  }
};

/// The overload slot runs first in every tick, so its start opens a tick.
constexpr auto kFirstSlot = static_cast<std::size_t>(StageKind::kOverload);

class TimedStage final : public Stage {
 public:
  TimedStage(std::unique_ptr<Stage> inner, SlotClock& clock)
      : inner_(std::move(inner)),
        clock_(clock),
        slot_(static_cast<std::size_t>(inner_->kind())) {}

  [[nodiscard]] StageKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  void run(SessionState& state, TickContext& ctx) override {
    const Clock::time_point start = Clock::now();
    if (slot_ == kFirstSlot) {
      clock_.tick_start.push_back(start);
      if (clock_.traced) clock_.slots.emplace_back();
    }
    inner_->run(state, ctx);
    if (clock_.traced) {
      const Clock::time_point end = Clock::now();
      clock_.slots.back()[slot_] = {
          std::chrono::duration<double, std::micro>(start - clock_.epoch)
              .count(),
          std::chrono::duration<double, std::micro>(end - start).count()};
    }
  }

 private:
  std::unique_ptr<Stage> inner_;
  SlotClock& clock_;
  std::size_t slot_;
};

/// Registers "timed:<name>" beside every registered policy.
void register_timed_policies(SlotClock& clock) {
  PolicyRegistry& registry = PolicyRegistry::instance();
  for (std::size_t k = 0; k < kStageKindCount; ++k) {
    const auto kind = static_cast<StageKind>(k);
    for (const std::string& name : registry.names(kind)) {
      registry.add(kind, std::string(kTimedPrefix) + name,
                   [kind, name, &clock](const SessionConfig& c) {
                     return std::make_unique<TimedStage>(
                         PolicyRegistry::instance().create(kind, name, c),
                         clock);
                   });
    }
  }
}

/// Points each slot (only the overload slot when untraced) at the timed
/// wrapper of the policy the config selects for it.
void route_through_timers(SessionConfig& c, bool traced) {
  for (std::size_t k = 0; k < kStageKindCount; ++k) {
    const auto kind = static_cast<StageKind>(k);
    if (!traced && kind != StageKind::kOverload) continue;
    const std::string slot(to_string(kind));
    const auto it = c.policy_overrides.find(slot);
    const std::string inner =
        it != c.policy_overrides.end() ? it->second : default_policy(kind, c);
    c.policy_overrides[slot] = std::string(kTimedPrefix) + inner;
  }
}

// --- correctness ------------------------------------------------------------

/// FNV-1a 64 over every SessionResult field (doubles as raw bits).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_of(const SessionResult& r) {
  Digest d;
  d.add(r.qoe.duration_s);
  d.add(static_cast<std::uint64_t>(r.qoe.users.size()));
  for (const sim::UserQoe& u : r.qoe.users) {
    d.add(static_cast<std::uint64_t>(u.user));
    d.add(u.displayed_fps);
    d.add(u.stall_time_s);
    d.add(u.stall_ratio);
    d.add(u.mean_quality_tier);
    d.add(static_cast<std::uint64_t>(u.quality_switches));
    d.add(u.mean_goodput_mbps);
    d.add(u.viewport_miss_ratio);
    d.add(u.mean_m2p_latency_s);
    d.add(u.max_m2p_latency_s);
  }
  d.add(r.multicast_bit_share);
  d.add(r.mean_group_size);
  for (std::size_t v :
       {r.custom_beam_uses, r.stock_beam_uses, r.blockage_forecasts,
        r.reflection_switches, r.dropped_ticks, r.outage_user_ticks,
        r.sls_sweeps, r.sls_outage_ticks})
    d.add(static_cast<std::uint64_t>(v));
  d.add(r.mean_airtime_utilization);
  const fault::FaultReport& f = r.faults;
  for (std::size_t v :
       {f.faults_injected, f.recoveries, f.group_reformations,
        f.concealed_frames, f.skipped_frames, f.probe_retries,
        f.fallback_stock_beams, f.fallback_reflection_beams,
        f.fallback_tier_drops, f.degraded_user_ticks, f.unhealthy_user_ticks,
        f.health_transitions})
    d.add(static_cast<std::uint64_t>(v));
  d.add(f.mean_time_to_recover_s);
  d.add(f.max_time_to_recover_s);
  d.add(f.fault_rebuffer_s);
  const transport::TransportReport& t = r.transport;
  for (std::uint64_t v :
       {t.trains, t.tiles, t.data_packets, t.parity_packets, t.lost_packets,
        t.retransmitted_packets, t.nacks, t.fec_recovered_tiles,
        t.nack_recovered_tiles, t.deadline_missed_tiles})
    d.add(v);
  d.add(t.residual_loss_mean);
  d.add(t.recovery_ms_p50);
  d.add(t.recovery_ms_p99);
  d.add(t.recovery_ms_max);
  for (std::uint64_t v : {r.tiles.requests, r.tiles.encoded_tiles,
                          r.tiles.stitched_tiles, r.tiles.encoded_bytes,
                          r.tiles.stitched_bytes})
    d.add(v);
  const overload::OverloadReport& o = r.overload;
  for (std::uint64_t v :
       {o.green_ticks, o.yellow_ticks, o.orange_ticks, o.red_ticks,
        o.transitions, o.tier_capped_user_ticks, o.cells_shed,
        o.deferred_tiles})
    d.add(v);
  d.add(o.peak_utilization);
  d.add(static_cast<std::uint64_t>(o.final_level));
  return d.value();
}

std::uint64_t counter_value(const obs::Telemetry& tel, const char* name) {
  const auto& counters = tel.metrics().counters();
  const auto it = counters.find(name);
  return it != counters.end() ? it->second->value() : 0;
}

/// Range checks on one result; empty when it passes.
std::string check_result(const SessionConfig& c, const SessionResult& r,
                         std::size_t ticks, const obs::Telemetry* tel) {
  const auto expected_ticks =
      static_cast<std::size_t>(std::llround(c.duration_s * c.fps));
  if (ticks != expected_ticks)
    return "timed " + std::to_string(ticks) + " ticks, expected " +
           std::to_string(expected_ticks);
  if (r.qoe.users.size() != c.user_count) return "wrong number of users";
  // Stall time is a sum of tick intervals, so a user who never plays ends a
  // hair above the session length: allow rounding.
  const auto in = [](double v, double lo, double hi) {
    return std::isfinite(v) && v >= lo && v <= hi * (1.0 + 1e-9);
  };
  for (const sim::UserQoe& u : r.qoe.users) {
    if (!in(u.displayed_fps, 0.0, c.fps))
      return "fps out of [0, config fps]";
    if (!in(u.stall_ratio, 0.0, 1.0)) return "stall_ratio out of [0, 1]";
    if (!in(u.mean_quality_tier, 0.0, 2.0)) return "tier out of [0, 2]";
    if (!in(u.mean_m2p_latency_s, 0.0, 1e9)) return "bad m2p latency";
  }
  if (!in(r.multicast_bit_share, 0.0, 1.0))
    return "multicast_bit_share out of [0, 1]";
  if (tel != nullptr) {
    const std::uint64_t played = counter_value(*tel, "player.frames_played");
    const std::uint64_t buffered =
        counter_value(*tel, "player.frames_delivered") +
        counter_value(*tel, "player.frames_concealed");
    if (played > buffered) return "played more frames than were delivered";
  }
  return {};
}

// --- one pass ---------------------------------------------------------------

struct SpanRow {
  std::uint32_t session = 0;
  std::uint32_t tick = 0;
  std::uint8_t slot = 0;
  SlotTime time;
};

struct Pass {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t ticks = 0;
  double run_s = 0.0;  // sum of Session::run wall time
  std::vector<double> bundle_s;   // every WorkloadBundle::build
  std::vector<double> session_s;  // every Session construction
  std::vector<double> tick_ms;
  std::array<std::vector<double>, kStageKindCount> slot_ms;  // traced
  std::map<std::string, std::uint64_t> counters;             // traced
  std::vector<SpanRow> spans;                                // traced
  // The workload's fixed session set (the first `sessions`), by index.
  std::vector<std::optional<std::uint64_t>> digests;
  std::vector<SessionResult> results;
};

Pass run_pass(const Workload& w, std::uint64_t seed, std::size_t sessions,
              double duration_s, double seconds, bool traced,
              SlotClock& clock) {
  Pass pass;
  pass.digests.resize(sessions);
  const Clock::time_point pass_start = Clock::now();
  clock.epoch = pass_start;

  // A shared-content workload rebuilds its one bundle every `rebuild_every`
  // sessions, so set-up is timed kSetupRepeats or more times, spread over
  // the pass like the sessions' own timings.
  std::shared_ptr<const WorkloadBundle> shared;
  const std::size_t rebuild_every =
      std::max<std::size_t>(1, sessions / kSetupRepeats);

  for (std::size_t i = 0;
       i < sessions || seconds_between(pass_start, Clock::now()) < seconds;
       ++i) {
    ++pass.attempted;
    const std::uint64_t s = session_seed(seed, i);
    try {
      SessionConfig config = make_config(w, seed, s, duration_s);
      route_through_timers(config, traced);
      obs::Telemetry telemetry(obs::TelemetryOptions{false});
      if (traced) config.telemetry = &telemetry;
      clock.reset(traced);

      const Clock::time_point t0 = Clock::now();
      if (!w.shared_content) {
        config.bundle = WorkloadBundle::build(config);
      } else {
        if (i % rebuild_every == 0) {
          shared.reset();
          shared = WorkloadBundle::build(config);
        }
        config.bundle = shared;
      }
      const Clock::time_point t1 = Clock::now();
      Session session(config);
      const Clock::time_point t2 = Clock::now();
      const SessionResult result = session.run();
      const Clock::time_point t3 = Clock::now();

      const std::string problem =
          check_result(config, result, clock.tick_start.size(),
                       traced ? &telemetry : nullptr);
      if (!problem.empty()) {
        ++pass.failed;
        std::fprintf(stderr, "ledger: %s session %zu (seed %llu): %s\n",
                     std::string(w.name).c_str(), i,
                     static_cast<unsigned long long>(s), problem.c_str());
        continue;
      }
      if (i < sessions) {
        pass.digests[i] = digest_of(result);
        pass.results.push_back(result);
      }

      if (!w.shared_content || i % rebuild_every == 0)
        pass.bundle_s.push_back(seconds_between(t0, t1));
      pass.session_s.push_back(seconds_between(t1, t2));
      pass.run_s += seconds_between(t2, t3);
      const std::size_t ticks = clock.tick_start.size();
      pass.ticks += ticks;
      for (std::size_t k = 0; k < ticks; ++k) {
        const Clock::time_point end =
            k + 1 < ticks ? clock.tick_start[k + 1] : t3;
        pass.tick_ms.push_back(1e3 * seconds_between(clock.tick_start[k], end));
      }
      if (traced) {
        for (std::size_t k = 0; k < ticks; ++k)
          for (std::size_t slot = 0; slot < kStageKindCount; ++slot) {
            const SlotTime& st = clock.slots[k][slot];
            pass.slot_ms[slot].push_back(st.dur_us / 1e3);
            pass.spans.push_back({static_cast<std::uint32_t>(i),
                                  static_cast<std::uint32_t>(k),
                                  static_cast<std::uint8_t>(slot), st});
          }
        for (const auto& [name, counter] : telemetry.metrics().counters())
          pass.counters[name] += counter->value();
      }
    } catch (const std::exception& e) {
      ++pass.failed;
      std::fprintf(stderr, "ledger: %s session %zu (seed %llu) threw: %s\n",
                   std::string(w.name).c_str(), i,
                   static_cast<unsigned long long>(s), e.what());
    }
  }
  return pass;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// False for a metric the ledger prints but BENCHMARK.json does not list.
  bool gated = true;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
double mean_over(const std::vector<SessionResult>& results, F f) {
  double s = 0.0;
  for (const SessionResult& r : results) s += f(r);
  return ratio(s, static_cast<double>(results.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median bundle build plus median Session construction.
double setup_median_s(const Pass& p) {
  return percentile(p.bundle_s, 0.50) + percentile(p.session_s, 0.50);
}

double setup_total_s(const Pass& p) {
  return sum(p.bundle_s) + sum(p.session_s);
}

std::vector<Metric> end_to_end_metrics(const Pass& p) {
  const auto& rs = p.results;
  return {
      {"ticks_per_s", "ticks/s", ratio(static_cast<double>(p.ticks), p.run_s)},
      {"tick_ms_p95", "ms", percentile(p.tick_ms, 0.95)},
      {"setup_s", "s", setup_median_s(p)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"mean_fps", "fps",
       mean_over(rs, [](const SessionResult& r) { return r.qoe.mean_fps(); })},
      {"mean_tier", "tier",
       mean_over(rs,
                 [](const SessionResult& r) {
                   return r.qoe.mean_quality_tier();
                 })},
      // Too noisy across runs for any bound BENCHMARK.json may set (README).
      {"tick_ms_p50", "ms", percentile(p.tick_ms, 0.50), false},
      {"tick_ms_p99", "ms", percentile(p.tick_ms, 0.99), false},
      {"stall_ratio", "ratio",
       mean_over(rs,
                 [](const SessionResult& r) {
                   return r.qoe.total_stall_s() /
                          (static_cast<double>(r.qoe.users.size()) *
                           r.qoe.duration_s);
                 }),
       false},
      {"m2p_ms_mean", "ms",
       mean_over(rs,
                 [](const SessionResult& r) {
                   double s = 0.0;
                   for (const sim::UserQoe& u : r.qoe.users)
                     s += u.mean_m2p_latency_s;
                   return 1e3 * s / static_cast<double>(r.qoe.users.size());
                 }),
       false},
  };
}

std::vector<Metric> per_layer_metrics(const Pass& traced,
                                      const Pass& untraced) {
  const auto c = [&](const char* name) {
    const auto it = traced.counters.find(name);
    return it != traced.counters.end() ? static_cast<double>(it->second)
                                       : 0.0;
  };
  const double ticks = static_cast<double>(traced.ticks);
  const double tick_total = sum(traced.tick_ms);
  std::vector<Metric> out;
  double slot_total = 0.0;
  for (std::size_t k = 0; k < kStageKindCount; ++k) {
    const std::string slot(to_string(static_cast<StageKind>(k)));
    const std::vector<double>& ms = traced.slot_ms[k];
    const double total = sum(ms);
    slot_total += total;
    out.push_back({slot + ".ms_p50", "ms", percentile(ms, 0.50)});
    out.push_back({slot + ".ms_p99", "ms", percentile(ms, 0.99)});
    out.push_back({slot + ".share", "ratio", ratio(total, tick_total)});
  }
  const double packets = c("transport.packets_sent") +
                         c("transport.parity_packets") +
                         c("transport.retransmitted_packets");
  const auto& rs = traced.results;
  const std::vector<Metric> layers = {
      {"beam.multicast_designs_per_tick", "count/tick",
       ratio(c("beam.multicast_designs"), ticks)},
      {"beam.probe_reject_ratio", "ratio",
       ratio(c("beam.probe_rejects"), c("beam.multicast_designs"))},
      {"mmwave.rss_evals_per_tick", "count/tick",
       ratio(c("mmwave.rss_evals"), ticks)},
      {"grouping.mean_group_size", "users",
       mean_over(rs, [](const SessionResult& r) { return r.mean_group_size; })},
      {"grouping.multicast_bit_share", "ratio",
       mean_over(rs,
                 [](const SessionResult& r) { return r.multicast_bit_share; })},
      {"tile.hit_ratio", "ratio",
       ratio(c("tile.stitched_tiles"), c("tile.requests"))},
      {"tile.encoded_mb_per_tick", "MB/tick",
       ratio(c("tile.encoded_bytes") / 1e6, ticks)},
      {"transport.packets_per_tick", "count/tick", ratio(packets, ticks)},
      {"transport.parity_share", "ratio",
       ratio(c("transport.parity_packets"), packets)},
      {"transport.retransmit_share", "ratio",
       ratio(c("transport.retransmitted_packets"), packets)},
      {"mac.groups_per_tick", "count/tick", ratio(c("mac.groups"), ticks)},
      {"mac.multicast_group_share", "ratio",
       ratio(c("mac.multicast_groups"), c("mac.groups"))},
      {"player.concealed_share", "ratio",
       ratio(c("player.frames_concealed"),
             c("player.frames_delivered") + c("player.frames_concealed"))},
      {"beam.unicast_designs_per_tick", "count/tick",
       ratio(c("beam.unicast_designs"), ticks)},
      {"viewport.forecasts_per_tick", "count/tick",
       ratio(c("viewport.predictions"), ticks)},
      {"overload.brownout_share", "ratio",
       ratio(c("overload.brownout_ticks"), c("overload.ticks"))},
      {"setup.bundle_s", "s", percentile(traced.bundle_s, 0.50)},
      {"setup.session_s", "s", percentile(traced.session_s, 0.50)},
      {"setup.share", "ratio",
       ratio(setup_total_s(traced), setup_total_s(traced) + traced.run_s)},
      {"pipeline.coverage", "ratio", ratio(slot_total, tick_total)},
      {"trace.overhead_pct", "%",
       100.0 * (ratio(static_cast<double>(untraced.ticks), untraced.run_s) /
                    ratio(ticks, traced.run_s) -
                1.0)},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

// --- output -----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One digest for the workload: FNV over the per-session digests in
/// session order (a failed session contributes a zero).
std::uint64_t workload_digest(const Pass& p) {
  Digest d;
  for (const auto& digest : p.digests) d.add(digest.value_or(0));
  return d.value();
}

void print_table(std::string_view title, const std::vector<Metric>& metrics) {
  std::printf("%.*s\n", static_cast<int>(title.size()), title.data());
  for (const Metric& m : metrics)
    std::printf("  %-34s %14.6g  %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.gated ? "" : "  (not in BENCHMARK.json)");
}

/// `text` as a JSON string literal (build flags may hold quotes).
std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string host_json(std::uint64_t seed, const std::string& git_rev) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(VOLCAST_LEDGER_COMPILER)
      << ", \"build_type\": " << json_string(VOLCAST_LEDGER_BUILD_TYPE)
      << ", \"cxx_flags\": " << json_string(VOLCAST_LEDGER_CXX_FLAGS)
      << ", \"volcast_native\": " << json_string(VOLCAST_LEDGER_NATIVE)
      << ", \"git_rev\": " << json_string(git_rev) << ", \"seed\": " << seed
      << "}";
  return out.str();
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

std::string spans_jsonl(std::string_view workload, const Pass& traced) {
  std::string out;
  out.reserve(traced.spans.size() * 110);
  char line[256];
  for (const SpanRow& s : traced.spans) {
    std::snprintf(line, sizeof line,
                  "{\"workload\": \"%.*s\", \"session\": %u, \"tick\": %u, "
                  "\"slot\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}\n",
                  static_cast<int>(workload.size()), workload.data(),
                  s.session, s.tick,
                  std::string(to_string(static_cast<StageKind>(s.slot)))
                      .c_str(),
                  s.time.start_us, s.time.dur_us);
    out += line;
  }
  return out;
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "volcast_ledger: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags("volcast_ledger",
                   "stage ledger: end-to-end and per-slot session metrics");
  flags.add_string("workload", "", "crowd16 | surround_wire | unicast_short");
  flags.add_number("seed", 1, "ledger seed; session i runs seed 1e6*seed+i");
  flags.add_number("seconds", 30,
                   "wall time each pass measures for; the workload's fixed "
                   "session set always runs whole");
  flags.add_number("trace", 0,
                   "0: untraced pass, end-to-end metrics; 1: untraced and "
                   "traced passes, per-layer metrics");
  flags.add_switch("smoke", "1 session x 1 s, once per pass");
  flags.add_string("out", "bench/ledger/out", "directory for ledger files");
  flags.add_string("git-rev", "unknown", "revision stamped into the ledger");
  std::string error;
  if (!flags.parse(argc, argv, &error)) return usage_error(error);
  if (flags.help_requested()) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }

#ifndef NDEBUG
  return usage_error("refusing to emit numbers from a build with assertions "
                     "on; build with CMAKE_BUILD_TYPE=Release");
#endif
  if (std::string_view(VOLCAST_LEDGER_BUILD_TYPE) != "Release")
    return usage_error(std::string("refusing to emit numbers from a '") +
                       VOLCAST_LEDGER_BUILD_TYPE +
                       "' build; build with CMAKE_BUILD_TYPE=Release");

  const Workload* workload = find_workload(flags.str("workload"));
  if (workload == nullptr)
    return usage_error("unknown --workload '" + flags.str("workload") +
                       "' (expected crowd16, surround_wire or unicast_short)");
  const long trace = flags.integer("trace");
  if (trace != 0 && trace != 1) return usage_error("--trace must be 0 or 1");
  const std::uint64_t seed = flags.u64("seed");
  const bool smoke = flags.on("smoke");
  const double seconds = smoke ? 0.0 : flags.num("seconds");
  const std::size_t sessions = smoke ? 1 : workload->sessions;
  const double duration_s = smoke ? 1.0 : workload->duration_s;

  static SlotClock clock;
  register_timed_policies(clock);

  const Pass untraced = run_pass(*workload, seed, sessions, duration_s,
                                 seconds, false, clock);
  std::vector<Metric> e2e = end_to_end_metrics(untraced);
  std::size_t attempted = untraced.attempted;
  std::size_t failed = untraced.failed;

  std::optional<Pass> traced;
  std::vector<Metric> layers;
  if (trace == 1) {
    traced =
        run_pass(*workload, seed, sessions, duration_s, seconds, true, clock);
    attempted += traced->attempted;
    failed += traced->failed;
    for (std::size_t i = 0; i < sessions; ++i) {
      if (!untraced.digests[i] || !traced->digests[i] ||
          *untraced.digests[i] == *traced->digests[i])
        continue;
      ++failed;
      std::fprintf(stderr,
                   "ledger: %s session %zu: traced and untraced results "
                   "differ\n",
                   std::string(workload->name).c_str(), i);
    }
    layers = per_layer_metrics(*traced, untraced);
  }
  e2e.push_back({"error_rate", "ratio",
                 ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)),
                 false});
  std::vector<Metric> reported;
  for (const Metric& m : trace == 1 ? layers : e2e)
    if (m.gated) reported.push_back(m);
  for (const Metric& m : reported)
    if (!std::isfinite(m.value)) {
      ++failed;
      std::fprintf(stderr, "ledger: metric %s is not finite\n",
                   m.name.c_str());
    }

  const std::string name(workload->name);
  const std::string digest = hex64(workload_digest(untraced));
  std::printf("== %s  seed %llu  (%s)\n", name.c_str(),
              static_cast<unsigned long long>(seed),
              std::string(workload->why).c_str());
  std::printf("untraced: %zu sessions, %zu ticks, run %.3f s, set-up %.3f s\n",
              untraced.attempted, untraced.ticks, untraced.run_s,
              setup_total_s(untraced));
  if (traced)
    std::printf("traced: %zu sessions, %zu ticks, run %.3f s, set-up %.3f s\n",
                traced->attempted, traced->ticks, traced->run_s,
                setup_total_s(*traced));
  print_table("end to end (untraced pass)", e2e);
  std::printf("  tick_ms_p99 against the %.1f ms frame budget: %s\n",
              kFrameBudgetMs,
              percentile(untraced.tick_ms, 0.99) <= kFrameBudgetMs ? "within"
                                                                   : "over");
  if (traced) print_table("per layer (traced pass)", layers);
  std::printf("digest %s seed=%llu sessions=%zu fnv=%s%s\n", name.c_str(),
              static_cast<unsigned long long>(seed), sessions, digest.c_str(),
              traced ? (workload_digest(*traced) == workload_digest(untraced)
                            ? " (traced equal)"
                            : " (traced DIFFERS)")
                     : "");
  const std::string host = host_json(seed, flags.str("git-rev"));
  std::printf("host %s\n", host.c_str());

  std::error_code ec;
  const std::filesystem::path out_dir(flags.str("out"));
  std::filesystem::create_directories(out_dir, ec);
  std::ostringstream ledger;
  ledger << "{\"workload\": \"" << name << "\", \"seed\": " << seed
         << ", \"seconds\": " << json_number(seconds)
         << ", \"smoke\": " << (smoke ? "true" : "false")
         << ", \"trace\": " << trace << ", \"digest\": \"" << digest
         << "\", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"host\": " << host
         << ", \"end_to_end\": " << json_metrics(e2e);
  if (traced) ledger << ", \"per_layer\": " << json_metrics(layers);
  ledger << "}\n";
  if (ec || !write_file(out_dir / (name + ".json"), ledger.str()) ||
      (traced && !write_file(out_dir / (name + ".spans.jsonl"),
                             spans_jsonl(name, *traced)))) {
    std::fprintf(stderr, "ledger: cannot write to %s\n",
                 out_dir.string().c_str());
    ++failed;
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              json_metrics(reported).c_str());
  return failed == 0 ? 0 : 1;
}
