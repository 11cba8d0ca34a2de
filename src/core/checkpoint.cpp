#include "core/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/endian.h"
#include "core/workload_bundle.h"

namespace volcast::core {

namespace {

using common::append_bytes;
using common::get_u32;
using common::get_u64;
using common::put_f64;
using common::put_u32;
using common::put_u64;

/// Bounds-checked cursor over an untrusted blob: every read validates the
/// remaining byte count first, so corrupted length fields fail with a
/// typed error before any allocation or out-of-range access.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - at_;
  }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[at_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    const std::uint32_t v = get_u32(data_, at_);
    at_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    const std::uint64_t v = get_u64(data_, at_);
    at_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str(std::size_t length) {
    need(length, "string body");
    std::string out(reinterpret_cast<const char*>(data_.data() + at_),
                    length);
    at_ += length;
    return out;
  }

 private:
  void need(std::size_t bytes, const char* what) const {
    if (remaining() < bytes)
      throw CheckpointError(std::string("checkpoint: truncated ") + what +
                            " at offset " + std::to_string(at_));
  }

  std::span<const std::uint8_t> data_;
  std::size_t at_ = 0;
};

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  append_bytes(out, s.data(), s.size());
}

// --- SessionResult <-> bytes ----------------------------------------------
// Doubles are stored as raw bit patterns: restore must be bit-exact, not
// merely round-trip-close.

void put_session_result(std::vector<std::uint8_t>& out,
                        const SessionResult& r) {
  put_f64(out, r.qoe.duration_s);
  put_u32(out, static_cast<std::uint32_t>(r.qoe.users.size()));
  for (const sim::UserQoe& u : r.qoe.users) {
    put_u64(out, static_cast<std::uint64_t>(u.user));
    put_f64(out, u.displayed_fps);
    put_f64(out, u.stall_time_s);
    put_f64(out, u.stall_ratio);
    put_f64(out, u.mean_quality_tier);
    put_u64(out, static_cast<std::uint64_t>(u.quality_switches));
    put_f64(out, u.mean_goodput_mbps);
    put_f64(out, u.viewport_miss_ratio);
    put_f64(out, u.mean_m2p_latency_s);
    put_f64(out, u.max_m2p_latency_s);
  }
  put_f64(out, r.multicast_bit_share);
  put_f64(out, r.mean_group_size);
  put_u64(out, static_cast<std::uint64_t>(r.custom_beam_uses));
  put_u64(out, static_cast<std::uint64_t>(r.stock_beam_uses));
  put_u64(out, static_cast<std::uint64_t>(r.blockage_forecasts));
  put_u64(out, static_cast<std::uint64_t>(r.reflection_switches));
  put_u64(out, static_cast<std::uint64_t>(r.dropped_ticks));
  put_u64(out, static_cast<std::uint64_t>(r.outage_user_ticks));
  put_u64(out, static_cast<std::uint64_t>(r.sls_sweeps));
  put_u64(out, static_cast<std::uint64_t>(r.sls_outage_ticks));
  put_f64(out, r.mean_airtime_utilization);
  const fault::FaultReport& f = r.faults;
  put_u64(out, static_cast<std::uint64_t>(f.faults_injected));
  put_u64(out, static_cast<std::uint64_t>(f.recoveries));
  put_f64(out, f.mean_time_to_recover_s);
  put_f64(out, f.max_time_to_recover_s);
  put_f64(out, f.fault_rebuffer_s);
  put_u64(out, static_cast<std::uint64_t>(f.group_reformations));
  put_u64(out, static_cast<std::uint64_t>(f.concealed_frames));
  put_u64(out, static_cast<std::uint64_t>(f.skipped_frames));
  put_u64(out, static_cast<std::uint64_t>(f.probe_retries));
  put_u64(out, static_cast<std::uint64_t>(f.fallback_stock_beams));
  put_u64(out, static_cast<std::uint64_t>(f.fallback_reflection_beams));
  put_u64(out, static_cast<std::uint64_t>(f.fallback_tier_drops));
  put_u64(out, static_cast<std::uint64_t>(f.degraded_user_ticks));
  put_u64(out, static_cast<std::uint64_t>(f.unhealthy_user_ticks));
  put_u64(out, static_cast<std::uint64_t>(f.health_transitions));
  const transport::TransportReport& w = r.transport;
  put_u64(out, w.trains);
  put_u64(out, w.tiles);
  put_u64(out, w.data_packets);
  put_u64(out, w.parity_packets);
  put_u64(out, w.lost_packets);
  put_u64(out, w.retransmitted_packets);
  put_u64(out, w.nacks);
  put_u64(out, w.fec_recovered_tiles);
  put_u64(out, w.nack_recovered_tiles);
  put_u64(out, w.deadline_missed_tiles);
  put_f64(out, w.residual_loss_mean);
  put_f64(out, w.recovery_ms_p50);
  put_f64(out, w.recovery_ms_p99);
  put_f64(out, w.recovery_ms_max);
  const vv::TileReport& t = r.tiles;
  put_u64(out, t.requests);
  put_u64(out, t.encoded_tiles);
  put_u64(out, t.stitched_tiles);
  put_u64(out, t.encoded_bytes);
  put_u64(out, t.stitched_bytes);
  const overload::OverloadReport& o = r.overload;
  put_u64(out, o.green_ticks);
  put_u64(out, o.yellow_ticks);
  put_u64(out, o.orange_ticks);
  put_u64(out, o.red_ticks);
  put_u64(out, o.transitions);
  put_u64(out, o.tier_capped_user_ticks);
  put_u64(out, o.cells_shed);
  put_u64(out, o.deferred_tiles);
  put_f64(out, o.peak_utilization);
  out.push_back(o.final_level);
}

SessionResult read_session_result(Reader& in) {
  SessionResult r;
  r.qoe.duration_s = in.f64();
  const std::uint32_t users = in.u32();
  // Each user row is 10 fixed fields of 8 bytes: reject an absurd count
  // before reserving anything.
  if (static_cast<std::uint64_t>(users) * 80 > in.remaining())
    throw CheckpointError("checkpoint: user count exceeds payload size");
  r.qoe.users.reserve(users);
  for (std::uint32_t i = 0; i < users; ++i) {
    sim::UserQoe u;
    u.user = static_cast<std::size_t>(in.u64());
    u.displayed_fps = in.f64();
    u.stall_time_s = in.f64();
    u.stall_ratio = in.f64();
    u.mean_quality_tier = in.f64();
    u.quality_switches = static_cast<std::size_t>(in.u64());
    u.mean_goodput_mbps = in.f64();
    u.viewport_miss_ratio = in.f64();
    u.mean_m2p_latency_s = in.f64();
    u.max_m2p_latency_s = in.f64();
    r.qoe.users.push_back(u);
  }
  r.multicast_bit_share = in.f64();
  r.mean_group_size = in.f64();
  r.custom_beam_uses = static_cast<std::size_t>(in.u64());
  r.stock_beam_uses = static_cast<std::size_t>(in.u64());
  r.blockage_forecasts = static_cast<std::size_t>(in.u64());
  r.reflection_switches = static_cast<std::size_t>(in.u64());
  r.dropped_ticks = static_cast<std::size_t>(in.u64());
  r.outage_user_ticks = static_cast<std::size_t>(in.u64());
  r.sls_sweeps = static_cast<std::size_t>(in.u64());
  r.sls_outage_ticks = static_cast<std::size_t>(in.u64());
  r.mean_airtime_utilization = in.f64();
  fault::FaultReport& f = r.faults;
  f.faults_injected = static_cast<std::size_t>(in.u64());
  f.recoveries = static_cast<std::size_t>(in.u64());
  f.mean_time_to_recover_s = in.f64();
  f.max_time_to_recover_s = in.f64();
  f.fault_rebuffer_s = in.f64();
  f.group_reformations = static_cast<std::size_t>(in.u64());
  f.concealed_frames = static_cast<std::size_t>(in.u64());
  f.skipped_frames = static_cast<std::size_t>(in.u64());
  f.probe_retries = static_cast<std::size_t>(in.u64());
  f.fallback_stock_beams = static_cast<std::size_t>(in.u64());
  f.fallback_reflection_beams = static_cast<std::size_t>(in.u64());
  f.fallback_tier_drops = static_cast<std::size_t>(in.u64());
  f.degraded_user_ticks = static_cast<std::size_t>(in.u64());
  f.unhealthy_user_ticks = static_cast<std::size_t>(in.u64());
  f.health_transitions = static_cast<std::size_t>(in.u64());
  transport::TransportReport& w = r.transport;
  w.trains = in.u64();
  w.tiles = in.u64();
  w.data_packets = in.u64();
  w.parity_packets = in.u64();
  w.lost_packets = in.u64();
  w.retransmitted_packets = in.u64();
  w.nacks = in.u64();
  w.fec_recovered_tiles = in.u64();
  w.nack_recovered_tiles = in.u64();
  w.deadline_missed_tiles = in.u64();
  w.residual_loss_mean = in.f64();
  w.recovery_ms_p50 = in.f64();
  w.recovery_ms_p99 = in.f64();
  w.recovery_ms_max = in.f64();
  vv::TileReport& t = r.tiles;
  t.requests = in.u64();
  t.encoded_tiles = in.u64();
  t.stitched_tiles = in.u64();
  t.encoded_bytes = in.u64();
  t.stitched_bytes = in.u64();
  overload::OverloadReport& o = r.overload;
  o.green_ticks = in.u64();
  o.yellow_ticks = in.u64();
  o.orange_ticks = in.u64();
  o.red_ticks = in.u64();
  o.transitions = in.u64();
  o.tier_capped_user_ticks = in.u64();
  o.cells_shed = in.u64();
  o.deferred_tiles = in.u64();
  o.peak_utilization = in.f64();
  o.final_level = in.u8();
  if (o.final_level > 3)
    throw CheckpointError("checkpoint: invalid brownout level");
  return r;
}

// --- fingerprint ----------------------------------------------------------

/// Incremental FNV-1a over the canonical little-endian encoding of the
/// fields fed to it.
class Hasher {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) { byte(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }

 private:
  void byte(std::uint8_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t checkpoint_checksum(
    std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fleet_fingerprint(const FleetConfig& config) {
  const SessionConfig& s = config.session;
  Hasher h;
  // The shared-artifact identity folds in first: any bundle change (video
  // seed, point budget, frame count, fps, cell size) moves the fingerprint
  // even though the same fields also hash individually below — the
  // checkpoint additionally records the hash verbatim for a specific
  // resume-time error message.
  h.u64(workload_bundle_hash(s));
  h.u64(config.sessions);
  h.u64(config.supervision.max_retries);
  h.u64(s.user_count);
  h.u64(static_cast<std::uint64_t>(s.device));
  h.f64(s.duration_s);
  h.f64(s.fps);
  h.u64(s.master_points);
  h.u64(s.video_frames);
  h.f64(s.cell_size_m);
  h.u64(s.start_tier);
  h.u64(s.seed);
  h.u64(s.content_seed);
  h.f64(s.prediction_horizon_s);
  h.f64(s.decode_points_per_second);
  h.f64(s.audience_spread_rad);
  h.u64(s.tick_budget);
  h.b(s.enable_multicast);
  h.u64(static_cast<std::uint64_t>(s.grouping));
  h.f64(s.grouping_min_iou);
  h.b(s.enable_custom_beams);
  h.b(s.predictive_beam_tracking);
  h.f64(s.sls_staleness_db);
  h.b(s.enable_user_occlusion);
  h.b(s.enable_blockage_mitigation);
  h.u64(static_cast<std::uint64_t>(s.adaptation));
  h.u64(static_cast<std::uint64_t>(s.estimator));
  h.u64(s.ap_count);
  h.f64(s.mac_overheads.per_transmission_s);
  h.f64(s.mac_overheads.per_beam_switch_s);
  h.f64(s.testbed.shadowing_sigma_db);
  h.f64(s.testbed.shadowing_coherence_s);
  h.f64(s.testbed.content_floor.x);
  h.f64(s.testbed.content_floor.y);
  h.f64(s.testbed.content_floor.z);
  h.f64(s.testbed.ap_position.x);
  h.f64(s.testbed.ap_position.y);
  h.f64(s.testbed.ap_position.z);
  h.u64(s.policy_overrides.size());
  for (const auto& [slot, name] : s.policy_overrides) {
    h.str(slot);
    h.str(name);
  }
  // Overload / admission control (v5): both change which work runs, so a
  // checkpoint taken with different knobs must not resume.
  h.b(s.overload.enabled);
  h.f64(s.overload.encode_budget_bytes);
  h.u64(s.overload.recover_ticks);
  h.b(config.admission.enabled);
  h.u64(config.admission.capacity);
  h.u64(config.admission.queue_limit);
  h.u64(config.admission.arrival_spacing_ticks);
  h.u64(config.admission.arrival_burst);
  h.u64(s.fault_plan.size());
  for (const fault::FaultEvent& e : s.fault_plan.events()) {
    h.f64(e.t_s);
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.u64(e.target);
    h.f64(e.duration_s);
    h.f64(e.magnitude);
    h.f64(e.position.x);
    h.f64(e.position.y);
    h.f64(e.position.z);
  }
  h.u64(s.replay_traces.size());
  for (const trace::Trace& t : s.replay_traces) {
    h.u64(static_cast<std::uint64_t>(t.device));
    h.f64(t.sample_rate_hz);
    h.u64(t.poses.size());
    for (const geo::Pose& p : t.poses) {
      h.f64(p.position.x);
      h.f64(p.position.y);
      h.f64(p.position.z);
      h.f64(p.orientation.w);
      h.f64(p.orientation.x);
      h.f64(p.orientation.y);
      h.f64(p.orientation.z);
    }
  }
  return h.digest();
}

std::vector<std::uint8_t> serialize_checkpoint(
    const FleetCheckpoint& checkpoint) {
  std::vector<std::uint8_t> out;
  put_u32(out, kCheckpointMagic);
  put_u32(out, kCheckpointVersion);
  put_u64(out, checkpoint.fingerprint);
  put_u64(out, checkpoint.bundle_hash);
  put_u32(out, checkpoint.slot_count);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.records.size()));
  for (const SlotRecord& rec : checkpoint.records) {
    put_u32(out, rec.slot);
    out.push_back(static_cast<std::uint8_t>(rec.outcome.status));
    out.push_back(static_cast<std::uint8_t>(rec.outcome.error_class));
    put_u32(out, rec.outcome.attempts);
    put_u64(out, rec.outcome.seed);
    put_u64(out, rec.outcome.backoff_ticks);
    out.push_back(static_cast<std::uint8_t>(rec.outcome.admission));
    put_u64(out, rec.outcome.admission_wait_ticks);
    put_str(out, rec.outcome.message);
    std::vector<std::uint8_t> body;
    put_session_result(body, rec.result);
    put_u32(out, static_cast<std::uint32_t>(body.size()));
    append_bytes(out, body.data(), body.size());
  }
  put_u64(out, checkpoint_checksum(out));
  return out;
}

FleetCheckpoint deserialize_checkpoint(std::span<const std::uint8_t> blob) {
  if (blob.size() < 8 + 4 + 4 + 8 + 8 + 4 + 4)
    throw CheckpointError("checkpoint: too short to hold a header");
  const std::uint64_t expected =
      get_u64(blob, blob.size() - 8);
  if (checkpoint_checksum(blob.subspan(0, blob.size() - 8)) != expected)
    throw CheckpointError("checkpoint: checksum mismatch (corrupt file)");

  Reader in(blob.subspan(0, blob.size() - 8));
  if (in.u32() != kCheckpointMagic)
    throw CheckpointError("checkpoint: bad magic (not a VCKP file)");
  const std::uint32_t version = in.u32();
  if (version != kCheckpointVersion)
    throw CheckpointError("checkpoint: unsupported version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kCheckpointVersion) + ")");
  FleetCheckpoint ckpt;
  ckpt.fingerprint = in.u64();
  ckpt.bundle_hash = in.u64();
  ckpt.slot_count = in.u32();
  const std::uint32_t records = in.u32();
  // Each record needs at least its fixed 47-byte prefix; reject counts the
  // payload cannot possibly hold before reserving.
  if (static_cast<std::uint64_t>(records) * 47 > in.remaining())
    throw CheckpointError("checkpoint: record count exceeds payload size");
  ckpt.records.reserve(records);
  for (std::uint32_t i = 0; i < records; ++i) {
    SlotRecord rec;
    rec.slot = in.u32();
    if (rec.slot >= ckpt.slot_count)
      throw CheckpointError("checkpoint: slot index " +
                            std::to_string(rec.slot) +
                            " out of range for a fleet of " +
                            std::to_string(ckpt.slot_count));
    const std::uint8_t status = in.u8();
    if (status > static_cast<std::uint8_t>(SlotStatus::kDenied))
      throw CheckpointError("checkpoint: invalid slot status");
    rec.outcome.status = static_cast<SlotStatus>(status);
    const std::uint8_t error_class = in.u8();
    if (error_class > static_cast<std::uint8_t>(FailureClass::kUnknown))
      throw CheckpointError("checkpoint: invalid failure class");
    rec.outcome.error_class = static_cast<FailureClass>(error_class);
    rec.outcome.attempts = in.u32();
    rec.outcome.seed = in.u64();
    rec.outcome.backoff_ticks = in.u64();
    const std::uint8_t admission = in.u8();
    if (admission >
        static_cast<std::uint8_t>(overload::AdmissionOutcome::kDenied))
      throw CheckpointError("checkpoint: invalid admission outcome");
    rec.outcome.admission = static_cast<overload::AdmissionOutcome>(admission);
    rec.outcome.admission_wait_ticks = in.u64();
    const std::uint32_t message_len = in.u32();
    if (message_len > in.remaining())
      throw CheckpointError("checkpoint: message length exceeds payload");
    rec.outcome.message = in.str(message_len);
    const std::uint32_t result_len = in.u32();
    if (result_len > in.remaining())
      throw CheckpointError("checkpoint: result length exceeds payload");
    const std::size_t before = in.remaining();
    rec.result = read_session_result(in);
    if (before - in.remaining() != result_len)
      throw CheckpointError("checkpoint: result length field disagrees "
                            "with its body");
    ckpt.records.push_back(std::move(rec));
  }
  if (in.remaining() != 0)
    throw CheckpointError("checkpoint: trailing bytes after last record");
  for (std::size_t i = 1; i < ckpt.records.size(); ++i)
    if (ckpt.records[i - 1].slot >= ckpt.records[i].slot)
      throw CheckpointError("checkpoint: slot records not strictly sorted");
  return ckpt;
}

void save_checkpoint(const FleetCheckpoint& checkpoint,
                     const std::string& path) {
  const std::vector<std::uint8_t> blob = serialize_checkpoint(checkpoint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw CheckpointError("checkpoint: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out)
      throw CheckpointError("checkpoint: short write to " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: cannot replace " + path + ": " +
                          ec.message());
  }
}

FleetCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw CheckpointError("checkpoint: cannot open " + path);
  std::vector<std::uint8_t> blob(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad())
    throw CheckpointError("checkpoint: read error on " + path);
  return deserialize_checkpoint(blob);
}

}  // namespace volcast::core
