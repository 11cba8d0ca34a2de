// volcast_sim — run a configurable multi-user streaming session from the
// command line and print the QoE outcome. Every ablation switch of the
// cross-layer system is exposed as a flag, so experiments beyond the bench
// harness need no recompilation.
//
//   volcast_sim --users=6 --duration=10 --device=hm --adaptation=cross
//   volcast_sim --users=8 --aps=2 --spread=6.28
//   volcast_sim --users=5 --no-multicast --reactive-beams
//   volcast_sim --users=4 --replay=traces.dir   (one VCTRACE file per user)
//   volcast_sim --users=6 --aps=2 --chaos --chaos-intensity=1.0
//   volcast_sim --users=4 --policy=grouping=pairs_only,beam=reactive
//   volcast_sim --users=4 --fleet=8             (8 seeded rooms, aggregated)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/flags.h"
#include "common/table.h"
#include "core/checkpoint.h"
#include "core/fleet.h"
#include "core/workload_bundle.h"
#include "core/session.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"
#include "trace/trace_io.h"

using namespace volcast;
using namespace volcast::core;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "volcast_sim: %s\n", message.c_str());
  return 1;
}

const FlagChoices<trace::DeviceType> kDeviceChoices{
    {"hm", trace::DeviceType::kHeadset},
    {"ph", trace::DeviceType::kSmartphone}};
const FlagChoices<AdaptationPolicy> kAdaptationChoices{
    {"none", AdaptationPolicy::kNone},
    {"buffer", AdaptationPolicy::kBufferOnly},
    {"cross", AdaptationPolicy::kCrossLayer}};
const FlagChoices<BandwidthEstimator> kEstimatorChoices{
    {"app", BandwidthEstimator::kAppOnly},
    {"phy", BandwidthEstimator::kPhyOnly},
    {"cross", BandwidthEstimator::kCrossLayer}};
const FlagChoices<GroupingPolicy> kGroupingChoices{
    {"unicast", GroupingPolicy::kUnicastOnly},
    {"pairs", GroupingPolicy::kPairsOnly},
    {"greedy", GroupingPolicy::kGreedyIoU},
    {"exhaustive", GroupingPolicy::kExhaustive}};

void print_session_result(const SessionConfig& config,
                          const SessionResult& result,
                          const std::string& device, bool per_user) {
  std::printf("session: %zu %s users, %.1f s, %zu AP(s)\n",
              config.user_count, device.c_str(), config.duration_s,
              config.ap_count);
  std::printf("mean fps %.1f | min fps %.1f | total stall %.2f s | mean "
              "tier %.2f | fairness %.2f\n",
              result.qoe.mean_fps(), result.qoe.min_fps(),
              result.qoe.total_stall_s(), result.qoe.mean_quality_tier(),
              result.qoe.fairness_index());
  std::printf("motion-to-photon: mean %.1f ms, max %.1f ms (user 0)\n",
              1e3 * result.qoe.users.front().mean_m2p_latency_s,
              1e3 * result.qoe.users.front().max_m2p_latency_s);
  std::printf("multicast bit share %.2f | mean group %.2f | custom beams "
              "%zu | stock %zu\n",
              result.multicast_bit_share, result.mean_group_size,
              result.custom_beam_uses, result.stock_beam_uses);
  std::printf("blockage forecasts %zu | reflection switches %zu | outage "
              "user-ticks %zu\n",
              result.blockage_forecasts, result.reflection_switches,
              result.outage_user_ticks);
  std::printf("SLS sweeps %zu | sweep outage ticks %zu | airtime "
              "utilization %.2f | dropped ticks %zu\n",
              result.sls_sweeps, result.sls_outage_ticks,
              result.mean_airtime_utilization, result.dropped_ticks);
  if (!config.fault_plan.empty())
    std::printf("%s", result.faults.summary().c_str());
  if (result.transport.trains > 0) {
    const auto& w = result.transport;
    std::printf("wire: %llu trains, %llu data + %llu parity pkts, %llu "
                "lost, %llu retransmitted\n",
                static_cast<unsigned long long>(w.trains),
                static_cast<unsigned long long>(w.data_packets),
                static_cast<unsigned long long>(w.parity_packets),
                static_cast<unsigned long long>(w.lost_packets),
                static_cast<unsigned long long>(w.retransmitted_packets));
    std::printf("wire recovery: %llu tiles by FEC, %llu by NACK, %llu "
                "deadline-missed | residual loss %.4f\n",
                static_cast<unsigned long long>(w.fec_recovered_tiles),
                static_cast<unsigned long long>(w.nack_recovered_tiles),
                static_cast<unsigned long long>(w.deadline_missed_tiles),
                w.residual_loss_mean);
    if (w.recovery_ms_max > 0.0)
      std::printf("wire recovery latency: p50 %.1f ms, p99 %.1f ms, max "
                  "%.1f ms\n",
                  w.recovery_ms_p50, w.recovery_ms_p99, w.recovery_ms_max);
  }
  if (result.tiles.requests > 0) {
    const auto& t = result.tiles;
    std::printf("tiles: %llu assembled = %llu encoded + %llu stitched "
                "(%.0f%% reuse)\n",
                static_cast<unsigned long long>(t.requests),
                static_cast<unsigned long long>(t.encoded_tiles),
                static_cast<unsigned long long>(t.stitched_tiles),
                100.0 * static_cast<double>(t.stitched_tiles) /
                    static_cast<double>(t.requests));
    std::printf("tile encode: %.2f MB total, %.2f MB/user | stitched %.2f "
                "MB saved\n",
                static_cast<double>(t.encoded_bytes) / 1e6,
                static_cast<double>(t.encoded_bytes) / 1e6 /
                    static_cast<double>(config.user_count),
                static_cast<double>(t.stitched_bytes) / 1e6);
  }

  if (config.overload.enabled) {
    static const char* kLevels[] = {"green", "yellow", "orange", "red"};
    const auto& o = result.overload;
    std::printf("overload: %llu green / %llu yellow / %llu orange / %llu "
                "red ticks | %llu transitions | peak util %.2f | final %s\n",
                static_cast<unsigned long long>(o.green_ticks),
                static_cast<unsigned long long>(o.yellow_ticks),
                static_cast<unsigned long long>(o.orange_ticks),
                static_cast<unsigned long long>(o.red_ticks),
                static_cast<unsigned long long>(o.transitions),
                o.peak_utilization,
                o.final_level <= 3 ? kLevels[o.final_level] : "?");
    std::printf("shed: %llu tier-capped user-ticks | %llu cells | %llu "
                "deferred tile encodes\n",
                static_cast<unsigned long long>(o.tier_capped_user_ticks),
                static_cast<unsigned long long>(o.cells_shed),
                static_cast<unsigned long long>(o.deferred_tiles));
  }

  if (per_user) {
    AsciiTable table;
    table.header({"user", "fps", "stall s", "tier", "goodput Mbps",
                  "switches"});
    for (const auto& u : result.qoe.users) {
      table.row({std::to_string(u.user), AsciiTable::num(u.displayed_fps, 1),
                 AsciiTable::num(u.stall_time_s, 2),
                 AsciiTable::num(u.mean_quality_tier, 2),
                 AsciiTable::num(u.mean_goodput_mbps, 1),
                 std::to_string(u.quality_switches)});
    }
    std::printf("%s", table.render().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags("volcast_sim",
                   "multi-user volumetric streaming session runner");
  flags.add_number("users", 4, "number of concurrent viewers");
  flags.add_number("duration", 8.0, "session length in seconds");
  flags.add_string("device", "hm", "viewer hardware: " + kDeviceChoices.names());
  flags.add_number("points", 100000, "master content points per frame");
  flags.add_number("frames", 30, "video frames before the clip loops");
  flags.add_number("aps", 1, "number of coordinated APs (1-4)");
  flags.add_number("seed", 1, "experiment seed (bit-reproducible)");
  flags.add_number("threads", 0,
                   "worker threads for building the video store (0 = "
                   "hardware concurrency, 1 = serial; result is "
                   "bit-identical)");
  flags.add_number("spread", 2.0,
                   "audience arc around the content in radians "
                   "(6.28 = surround)");
  flags.add_number("start-tier", 2, "initial quality tier (0..2)");
  flags.add_string("adaptation", "cross",
                   "rate adaptation: " + kAdaptationChoices.names());
  flags.add_string("estimator", "cross",
                   "bandwidth estimator: " + kEstimatorChoices.names());
  flags.add_string("grouping", "greedy",
                   "multicast grouping: " + kGroupingChoices.names());
  flags.add_switch("no-multicast", "disable multicast entirely");
  flags.add_switch("no-custom-beams", "stock sector beams only");
  flags.add_switch("no-mitigation", "disable proactive blockage mitigation");
  flags.add_switch("no-occlusion", "ignore user-user viewport occlusion");
  flags.add_switch("reactive-beams",
                   "reactive SLS beam training instead of predictive "
                   "tracking");
  flags.add_string("policy", "",
                   "pipeline policy overrides by registry name, applied on "
                   "top of the ablation flags: slot=name[,slot=name...], "
                   "e.g. grouping=pairs_only,beam=reactive (slots: "
                   "prediction, beam, adaptation, mitigation, grouping, "
                   "tiling, transport)");
  flags.add_switch("tile-cache",
                   "encode-once/serve-many tile accounting (shorthand for "
                   "--policy tiling=shared): within each session the first "
                   "touch of a (frame, tier, cell) tile counts as an "
                   "encode, every repeat as a stitch");
  flags.add_number("content-seed", 0,
                   "pin the video content identity regardless of --seed "
                   "(0 = derive from --seed); lets fleet slots stream the "
                   "same content and share one workload bundle");
  flags.add_switch("bundle",
                   "share one workload bundle (generated video, codec "
                   "tables, occupancy precompute) across all --fleet slots "
                   "instead of rebuilding per slot; pins --content-seed to "
                   "--seed when unset so every slot streams the same "
                   "content");
  flags.add_number("fleet", 0,
                   "run N independently-seeded sessions (seed, seed+1, ...) "
                   "and print aggregate fleet statistics (0 = single "
                   "session)");
  flags.add_number("fleet-parallel", 0,
                   "sessions simulated concurrently in fleet mode (0 = "
                   "hardware concurrency; results are bit-identical at any "
                   "value)");
  flags.add_number("fleet-retries", 0,
                   "retries per failed fleet slot with a deterministically "
                   "derived seed (0 = first failure is final; deadline "
                   "overruns are never retried)");
  flags.add_number("fleet-tick-budget", 0,
                   "logical per-session deadline in ticks; an overrunning "
                   "slot is recorded as deadline-exceeded (0 = unlimited)");
  flags.add_string("fleet-checkpoint", "",
                   "rewrite this file with every finished slot (atomic "
                   "replace); resume a killed run with --fleet-resume");
  flags.add_string("fleet-resume", "",
                   "restore finished slots from this checkpoint and run "
                   "only the missing ones (bit-identical to an "
                   "uninterrupted run)");
  flags.add_number("fleet-kill-after", 0,
                   "test hook: abort the fleet after N newly finished "
                   "slots (simulates an operator kill; 0 = off)");
  flags.add_number("fleet-admission", 0,
                   "admission control: at most N slots stream concurrently; "
                   "late arrivals queue (FIFO) or are denied when the queue "
                   "is full (0 = admit everything)");
  flags.add_number("fleet-admission-queue", 2,
                   "waiting-room size for --fleet-admission (arrivals "
                   "beyond capacity + queue are denied)");
  flags.add_number("fleet-arrival-spacing", 0,
                   "ticks between fleet slot arrivals (0 = everyone "
                   "arrives at tick 0); shapes the offered load the "
                   "admission controller sees");
  flags.add_number("fleet-arrival-burst", 1,
                   "slots arriving together at each arrival instant "
                   "(burst arrivals stress the admission queue)");
  flags.add_string("replay", "",
                   "directory of VCTRACE files (user0.trace, user1.trace, "
                   "...) to replay instead of synthetic mobility");
  flags.add_switch("chaos",
                   "inject a seeded random fault plan (AP outages, user "
                   "churn, obstacles, probe failures, frame loss, decoder "
                   "stalls) and print the recovery report");
  flags.add_number("chaos-seed", 0,
                   "fault plan seed (0 = reuse the experiment seed)");
  flags.add_number("chaos-intensity", 0.5,
                   "expected fault events per simulated second");
  flags.add_number("chaos-crash", 0.0,
                   "add a session-crash fault firing with this probability "
                   "(0 = no crash fault; with --fleet, crashed slots are "
                   "supervised instead of aborting the fleet)");
  flags.add_number("chaos-burst-loss", 0.0,
                   "add correlated burst-loss windows with this bad-state "
                   "packet-loss probability (needs a wire policy, e.g. "
                   "--policy transport=hybrid, to have any effect)");
  flags.add_number("chaos-cpu-pressure", 0.0,
                   "add a CPU-pressure window inflating logical stage costs "
                   "by this factor (>= 1; 0 = off; pair with --overload to "
                   "see the governor shed load)");
  flags.add_number("chaos-mem-pressure", 0.0,
                   "add a memory-pressure window shrinking the overload "
                   "governor's logical cache budget to this fraction "
                   "((0, 1]; 0 = off)");
  flags.add_switch("overload",
                   "enable the overload governor: logical encode/airtime/"
                   "cache budgets drive a green/yellow/orange/red brownout "
                   "ladder that caps far users' tiers, sheds low-saliency "
                   "cells and defers non-critical tile encodes "
                   "(deterministic at any --threads)");
  flags.add_number("overload-encode-budget", 0.0,
                   "per-tick logical encode budget in bytes (0 = default); "
                   "lower it to make the governor brown out under load");
  flags.add_switch("per-user", "print the per-user QoE table");
  flags.add_string("timeline", "",
                   "write a per-tick CSV (t,user,buffer_s,tier,rss_dbm,"
                   "rate_mbps,blockage) to this file");
  flags.add_string("telemetry", "",
                   "write the cross-layer telemetry log (spans, events, "
                   "metrics) as JSONL to this file; inspect with "
                   "'volcast_trace summarize <file>'");
  flags.add_switch("telemetry-no-wall",
                   "omit wall-clock span times from the telemetry log "
                   "(byte-identical output across runs and thread counts)");

  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    return fail(error + "\n\n" + flags.help());
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }

  // ---- flag coherence: reject combinations that would silently do
  // nothing (or lose work) with an error naming the missing flag ---------
  if (!flags.on("chaos")) {
    for (const char* f :
         {"chaos-seed", "chaos-intensity", "chaos-crash", "chaos-burst-loss",
          "chaos-cpu-pressure", "chaos-mem-pressure"}) {
      if (flags.provided(f))
        return fail(std::string("--") + f +
                    " has no effect without --chaos; add --chaos to inject "
                    "the fault plan");
    }
  }
  if (flags.size("fleet") == 0) {
    for (const char* f :
         {"fleet-parallel", "fleet-retries", "fleet-tick-budget",
          "fleet-checkpoint", "fleet-resume", "fleet-kill-after",
          "fleet-admission", "fleet-admission-queue", "fleet-arrival-spacing",
          "fleet-arrival-burst"}) {
      if (flags.provided(f))
        return fail(std::string("--") + f +
                    " is a fleet-mode flag; add --fleet=N (number of "
                    "sessions) to run a fleet");
    }
  }
  if (flags.size("fleet-admission") == 0) {
    for (const char* f : {"fleet-admission-queue", "fleet-arrival-spacing",
                          "fleet-arrival-burst"}) {
      if (flags.provided(f))
        return fail(std::string("--") + f +
                    " has no effect without --fleet-admission=N (streaming "
                    "capacity)");
    }
  }
  if (!flags.str("fleet-resume").empty() &&
      flags.str("fleet-checkpoint").empty())
    return fail("--fleet-resume without --fleet-checkpoint would lose "
                "progress on the next kill; pass --fleet-checkpoint=" +
                flags.str("fleet-resume") +
                " as well to continue in place (one file serves both "
                "roles)");
  if (flags.size("fleet-kill-after") > 0 &&
      flags.str("fleet-checkpoint").empty())
    return fail("--fleet-kill-after without --fleet-checkpoint aborts the "
                "run with nothing to resume from; add "
                "--fleet-checkpoint=FILE");
  if (flags.provided("overload-encode-budget") && !flags.on("overload"))
    return fail("--overload-encode-budget has no effect without --overload; "
                "add --overload to enable the governor");

  SessionConfig config;
  config.user_count = flags.size("users");
  config.duration_s = flags.num("duration");
  config.master_points = flags.size("points");
  config.video_frames = flags.size("frames");
  config.ap_count = flags.size("aps");
  config.seed = flags.u64("seed");
  config.worker_threads = flags.size("threads");
  config.audience_spread_rad = flags.num("spread");
  config.start_tier = flags.size("start-tier");
  config.enable_multicast = !flags.on("no-multicast");
  config.enable_custom_beams = !flags.on("no-custom-beams");
  config.enable_blockage_mitigation = !flags.on("no-mitigation");
  config.enable_user_occlusion = !flags.on("no-occlusion");
  config.predictive_beam_tracking = !flags.on("reactive-beams");

  const std::string device = flags.str("device");
  if (const auto v = kDeviceChoices.parse(device)) {
    config.device = *v;
  } else {
    return fail("unknown --device: " + device + " (expected " +
                kDeviceChoices.names() + ")");
  }
  if (const auto v = kAdaptationChoices.parse(flags.str("adaptation"))) {
    config.adaptation = *v;
  } else {
    return fail("unknown --adaptation: " + flags.str("adaptation") +
                " (expected " + kAdaptationChoices.names() + ")");
  }
  if (const auto v = kEstimatorChoices.parse(flags.str("estimator"))) {
    config.estimator = *v;
  } else {
    return fail("unknown --estimator: " + flags.str("estimator") +
                " (expected " + kEstimatorChoices.names() + ")");
  }
  if (const auto v = kGroupingChoices.parse(flags.str("grouping"))) {
    config.grouping = *v;
  } else {
    return fail("unknown --grouping: " + flags.str("grouping") +
                " (expected " + kGroupingChoices.names() + ")");
  }

  const auto overrides = parse_key_value_list(flags.str("policy"), &error);
  if (!overrides) return fail("--policy: " + error);
  for (const auto& [slot, name] : *overrides)
    config.policy_overrides[slot] = name;
  if (flags.on("tile-cache") && config.policy_overrides.count("tiling") == 0)
    config.policy_overrides["tiling"] = "shared";
  config.content_seed = flags.u64("content-seed");
  if (flags.on("bundle") && config.content_seed == 0)
    config.content_seed = config.seed != 0 ? config.seed : 1;

  const std::string replay_dir = flags.str("replay");
  if (!replay_dir.empty()) {
    for (std::size_t u = 0; u < config.user_count; ++u) {
      const auto path = std::filesystem::path(replay_dir) /
                        ("user" + std::to_string(u) + ".trace");
      std::ifstream in(path);
      if (!in) return fail("cannot open replay trace: " + path.string());
      try {
        config.replay_traces.push_back(trace::read_trace(in));
      } catch (const std::exception& e) {
        return fail(path.string() + ": " + e.what());
      }
    }
  }

  if (flags.on("chaos")) {
    fault::ChaosConfig chaos;
    const auto chaos_seed = flags.u64("chaos-seed");
    chaos.seed = chaos_seed != 0 ? chaos_seed : config.seed;
    chaos.duration_s = config.duration_s;
    chaos.user_count = config.user_count;
    chaos.ap_count = config.ap_count;
    chaos.intensity = flags.num("chaos-intensity");
    chaos.crash_probability = flags.num("chaos-crash");
    chaos.burst_loss_probability = flags.num("chaos-burst-loss");
    chaos.cpu_pressure = flags.num("chaos-cpu-pressure");
    chaos.mem_pressure = flags.num("chaos-mem-pressure");
    config.fault_plan = fault::random_plan(chaos);
    std::printf("%s", config.fault_plan.summary().c_str());
  }

  if (flags.on("overload")) {
    config.overload.enabled = true;
    if (flags.num("overload-encode-budget") > 0.0)
      config.overload.encode_budget_bytes =
          flags.num("overload-encode-budget");
  }

  // ---- fleet mode: N seeded rooms, aggregate statistics -----------------
  const std::size_t fleet_size = flags.size("fleet");
  if (fleet_size > 0) {
    if (!flags.str("timeline").empty() || !flags.str("telemetry").empty())
      return fail("--timeline/--telemetry are per-session sinks; not "
                  "available with --fleet");
    FleetConfig fc;
    fc.session = config;
    fc.sessions = fleet_size;
    fc.parallel_sessions = flags.size("fleet-parallel");
    fc.supervision.max_retries = flags.size("fleet-retries");
    fc.session.tick_budget = flags.size("fleet-tick-budget");
    fc.checkpoint_file = flags.str("fleet-checkpoint");
    fc.resume_file = flags.str("fleet-resume");
    fc.kill_after_slots = flags.size("fleet-kill-after");
    if (flags.size("fleet-admission") > 0) {
      fc.admission.enabled = true;
      fc.admission.capacity = flags.size("fleet-admission");
      fc.admission.queue_limit = flags.size("fleet-admission-queue");
      fc.admission.arrival_spacing_ticks = flags.u64("fleet-arrival-spacing");
      fc.admission.arrival_burst = flags.size("fleet-arrival-burst");
    }
    if (!fc.resume_file.empty()) {
      try {
        const FleetCheckpoint ckpt = load_checkpoint(fc.resume_file);
        std::printf("resuming: %zu of %u slots restored from %s\n",
                    ckpt.records.size(), ckpt.slot_count,
                    fc.resume_file.c_str());
      } catch (const CheckpointError& e) {
        return fail(std::string("checkpoint rejected: ") + e.what());
      }
    }
    FleetResult fleet;
    try {
      fleet = run_fleet(fc);
    } catch (const std::invalid_argument& e) {
      return fail(std::string("invalid configuration: ") + e.what());
    } catch (const FleetKilled& e) {
      std::fprintf(stderr, "volcast_sim: %s\n", e.what());
      if (!fc.checkpoint_file.empty())
        std::fprintf(stderr,
                     "volcast_sim: checkpoint written to %s; resume with "
                     "--fleet-resume=%s\n",
                     fc.checkpoint_file.c_str(), fc.checkpoint_file.c_str());
      return 3;
    } catch (const CheckpointError& e) {
      return fail(std::string("checkpoint rejected: ") + e.what());
    }
    std::printf("fleet: %zu sessions x %zu %s users (seeds %llu..%llu), "
                "%.1f s each\n",
                fc.sessions, config.user_count, device.c_str(),
                static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(config.seed + fc.sessions - 1),
                config.duration_s);
    if (config.content_seed != 0)
      std::printf("bundle: one shared workload bundle %016llx (content "
                  "seed %llu) served every slot's setup\n",
                  static_cast<unsigned long long>(
                      workload_bundle_hash(fc.session)),
                  static_cast<unsigned long long>(config.content_seed));
    std::printf("supported users %zu / %zu (>= %.1f fps)\n",
                fleet.supported_users, fleet.total_users,
                kSupportedFpsThreshold);
    std::printf("displayed fps: mean %.1f | p5 %.1f | p50 %.1f | p95 %.1f\n",
                fleet.mean_displayed_fps, fleet.p5_displayed_fps,
                fleet.p50_displayed_fps, fleet.p95_displayed_fps);
    std::printf("stall ratio mean %.3f | p95 stall %.2f s | mean tier "
                "%.2f\n",
                fleet.mean_stall_ratio, fleet.p95_stall_time_s,
                fleet.mean_quality_tier);
    if (fleet.tiles.requests > 0) {
      const auto& t = fleet.tiles;
      std::printf("tiles (fleet): %llu assembled = %llu encoded + %llu "
                  "stitched | encode %.2f MB, saved %.2f MB\n",
                  static_cast<unsigned long long>(t.requests),
                  static_cast<unsigned long long>(t.encoded_tiles),
                  static_cast<unsigned long long>(t.stitched_tiles),
                  static_cast<double>(t.encoded_bytes) / 1e6,
                  static_cast<double>(t.stitched_bytes) / 1e6);
    }
    if (fc.admission.enabled)
      std::printf("admission: capacity %zu + queue %zu | %zu slots queued "
                  "| %zu denied\n",
                  fc.admission.capacity, fc.admission.queue_limit,
                  fleet.queued_slots, fleet.denied_slots);
    if (fleet.aborted_slots > 0 || fleet.retried_slots > 0) {
      std::printf("supervision: %zu of %zu slots aborted | %zu "
                  "quarantined | %zu completed after retry\n",
                  fleet.aborted_slots, fc.sessions,
                  fleet.quarantined_slots, fleet.retried_slots);
      for (std::size_t k = 0; k < fleet.outcomes.size(); ++k) {
        const SlotOutcome& o = fleet.outcomes[k];
        if (o.status == SlotStatus::kCompleted && o.attempts == 1) continue;
        std::printf("  slot %zu: %s (%s, %u attempt(s)%s)%s%s\n", k,
                    to_string(o.status), to_string(o.error_class),
                    o.attempts,
                    o.backoff_ticks > 0
                        ? (", backoff " + std::to_string(o.backoff_ticks) +
                           " ticks").c_str()
                        : "",
                    o.message.empty() ? "" : ": ",
                    o.message.c_str());
      }
    }
    if (flags.on("per-user")) {
      AsciiTable table;
      table.header({"session", "status", "mean fps", "min fps", "stall s",
                    "tier"});
      for (std::size_t k = 0; k < fleet.sessions.size(); ++k) {
        const auto& qoe = fleet.sessions[k].qoe;
        const bool ok = fleet.outcomes[k].status == SlotStatus::kCompleted;
        table.row({std::to_string(k), to_string(fleet.outcomes[k].status),
                   ok ? AsciiTable::num(qoe.mean_fps(), 1) : "-",
                   ok ? AsciiTable::num(qoe.min_fps(), 1) : "-",
                   ok ? AsciiTable::num(qoe.total_stall_s(), 2) : "-",
                   ok ? AsciiTable::num(qoe.mean_quality_tier(), 2) : "-"});
      }
      std::printf("%s", table.render().c_str());
    }
    return 0;
  }

  std::ofstream timeline;
  const std::string timeline_path = flags.str("timeline");
  if (!timeline_path.empty()) {
    timeline.open(timeline_path);
    if (!timeline) return fail("cannot open " + timeline_path);
    timeline << "t,user,buffer_s,tier,rss_dbm,rate_mbps,blockage\n";
    config.tick_observer = [&timeline](const TickSample& s) {
      timeline << s.t_s << ',' << s.user << ',' << s.buffer_s << ','
               << s.tier << ',' << s.rss_dbm << ',' << s.rate_mbps << ','
               << (s.blockage_forecast ? 1 : 0) << '\n';
    };
  }

  obs::TelemetryOptions telemetry_options;
  telemetry_options.capture_wall_time = !flags.on("telemetry-no-wall");
  obs::Telemetry telemetry(telemetry_options);
  const std::string telemetry_path = flags.str("telemetry");
  if (!telemetry_path.empty()) config.telemetry = &telemetry;

  SessionResult result;
  try {
    Session session(config);
    result = session.run();
  } catch (const std::invalid_argument& e) {
    return fail(std::string("invalid configuration: ") + e.what());
  } catch (const fault::SessionCrashFault& e) {
    std::fprintf(stderr,
                 "volcast_sim: session crashed (injected fault): %s\n"
                 "volcast_sim: run under --fleet for supervised retry and "
                 "checkpointing\n",
                 e.what());
    return 2;
  } catch (const DeadlineExceeded& e) {
    std::fprintf(stderr, "volcast_sim: %s\n", e.what());
    return 2;
  }
  if (timeline.is_open())
    std::printf("timeline written to %s\n", timeline_path.c_str());
  if (!telemetry_path.empty()) {
    std::ofstream out(telemetry_path);
    if (!out) return fail("cannot open " + telemetry_path);
    telemetry.write_jsonl(out);
    std::printf("telemetry written to %s (%zu spans, %zu events)\n",
                telemetry_path.c_str(), telemetry.span_count(),
                telemetry.event_count());
  }

  print_session_result(config, result, device, flags.on("per-user"));
  return 0;
}
