#include "core/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/endian.h"
#include "common/fnv.h"
#include "core/result_fields.h"
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
// One visitor each way over the field list (core/result_fields.h). Doubles
// are stored as raw bit patterns: restore must be bit-exact, not merely
// round-trip-close. Every scalar takes 8 bytes except the one byte-wide
// field, the brownout level.

struct Encode {
  std::vector<std::uint8_t>& out;

  template <class T>
  void operator()(const char*, const T& v) const {
    if constexpr (kIsUserRows<T>) {
      put_u32(out, static_cast<std::uint32_t>(v.size()));
      for (const sim::UserQoe& row : v) visit_user_fields(row, *this);
    } else if constexpr (std::is_same_v<T, double>) {
      put_f64(out, v);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      out.push_back(v);
    } else {
      put_u64(out, static_cast<std::uint64_t>(v));
    }
  }
};

struct Decode {
  Reader& in;

  template <class T>
  void operator()(const char*, T& v) const {
    if constexpr (kIsUserRows<T>) {
      // Every row encodes to the same size as a blank one: reject an
      // absurd count before reserving anything.
      const sim::UserQoe blank{};
      std::vector<std::uint8_t> row_bytes;
      visit_user_fields(blank, Encode{row_bytes});
      const std::uint32_t users = in.u32();
      if (static_cast<std::uint64_t>(users) * row_bytes.size() >
          in.remaining())
        throw CheckpointError("checkpoint: user count exceeds payload size");
      v.resize(users);
      for (sim::UserQoe& row : v) visit_user_fields(row, *this);
    } else if constexpr (std::is_same_v<T, double>) {
      v = in.f64();
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      v = in.u8();  // the brownout level
      if (v > static_cast<std::uint8_t>(overload::BrownoutLevel::kRed))
        throw CheckpointError("checkpoint: invalid brownout level");
    } else {
      v = static_cast<T>(in.u64());
    }
  }
};

// --- fingerprint ----------------------------------------------------------

/// FNV-1a over the fleet fingerprint's field encoding: integers as u64,
/// doubles as their bit pattern, strings length-prefixed.
struct Hasher : common::Fnv1a {
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) { byte(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace

std::uint64_t checkpoint_checksum(
    std::span<const std::uint8_t> data) noexcept {
  return common::fnv1a(data);
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
    visit_fields(rec.result, Encode{body});
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
    visit_fields(rec.result, Decode{in});
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
