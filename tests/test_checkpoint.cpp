// Fleet checkpoint/restore: bit-exact round trips, typed rejection of
// every corruption, fingerprint scoping, and kill-and-resume equivalence
// with an uninterrupted run.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "common/endian.h"
#include "common/fnv.h"
#include "core/result_fields.h"
#include "core/workload_bundle.h"
#include "fault/fault_plan.h"
#include "session_compare.h"

namespace volcast::core {
namespace {

FleetConfig tiny_fleet(std::size_t sessions) {
  FleetConfig fc;
  fc.session.user_count = 1;
  fc.session.duration_s = 0.5;
  fc.session.master_points = 20'000;
  fc.session.video_frames = 10;
  fc.session.worker_threads = 1;
  fc.sessions = sessions;
  fc.parallel_sessions = 1;
  return fc;
}

/// A SessionResult with two user rows whose every field holds a distinct
/// non-zero value, the FNV-1a hash of its golden key and `salt`. The value
/// belongs to the field, not to its place in core/result_fields.h, so
/// moving a field in the list moves its bytes in the record. The brownout
/// level takes 1..3, its valid non-zero range.
SessionResult sample_result(std::uint64_t salt) {
  SessionResult r;
  r.qoe.users.resize(2);
  auto fill = [salt](const std::string& key, auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    common::Fnv1a h;
    for (char c : key) h.byte(static_cast<std::uint8_t>(c));
    h.u64(salt);
    const std::uint64_t k = h.digest();
    if constexpr (std::is_same_v<T, double>)
      v = static_cast<double>(k >> 12) + 0.5;
    else if constexpr (std::is_same_v<T, std::uint8_t>)
      v = static_cast<std::uint8_t>(1 + k % 3);
    else
      v = static_cast<T>(k);
  };
  visit_fields(r, [&](const char* key, auto& v) {
    if constexpr (kIsUserRows<decltype(v)>) {
      for (std::size_t u = 0; u < v.size(); ++u)
        visit_user_fields(v[u], [&](const char* field, auto& x) {
          fill("user" + std::to_string(u) + "." + field, x);
        });
    } else {
      fill(key, v);
    }
  });
  r.qoe.users[1].displayed_fps = -0.0;  // the sign bit must survive
  return r;
}

FleetCheckpoint sample_checkpoint() {
  FleetCheckpoint ckpt;
  ckpt.fingerprint = 0x1234'5678'9abc'def0ULL;
  ckpt.bundle_hash = 0x0fed'cba9'8765'4321ULL;
  ckpt.slot_count = 5;
  for (std::uint32_t slot : {0u, 2u, 4u}) {
    SlotRecord rec;
    rec.slot = slot;
    rec.outcome.status =
        slot == 2 ? SlotStatus::kFailed : SlotStatus::kCompleted;
    rec.outcome.error_class =
        slot == 2 ? FailureClass::kCrashFault : FailureClass::kNone;
    rec.outcome.message = slot == 2 ? "fault plan: session crash" : "";
    rec.outcome.attempts = slot == 4 ? 2 : 1;
    rec.outcome.seed = 42 + slot;
    rec.outcome.backoff_ticks = slot == 4 ? 17 : 0;
    rec.outcome.admission = slot == 4 ? overload::AdmissionOutcome::kQueued
                                      : overload::AdmissionOutcome::kAdmitted;
    rec.outcome.admission_wait_ticks = slot == 4 ? 23 : 0;
    rec.result = sample_result(slot);
    ckpt.records.push_back(rec);
  }
  return ckpt;
}

/// Scratch path under the build tree; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("volcast_ckpt_test_" + name))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

TEST(Checkpoint, SerializeDeserializeRoundTripsBitExactly) {
  const FleetCheckpoint ckpt = sample_checkpoint();
  const FleetCheckpoint back = deserialize_checkpoint(serialize_checkpoint(ckpt));
  EXPECT_EQ(back.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(back.bundle_hash, ckpt.bundle_hash);
  EXPECT_EQ(back.slot_count, ckpt.slot_count);
  ASSERT_EQ(back.records.size(), ckpt.records.size());
  for (std::size_t i = 0; i < ckpt.records.size(); ++i) {
    EXPECT_EQ(back.records[i].slot, ckpt.records[i].slot);
    expect_outcome_identical(back.records[i].outcome, ckpt.records[i].outcome);
    expect_identical(back.records[i].result, ckpt.records[i].result);
  }
}

TEST(Checkpoint, V6LayoutIsPinned) {
  // The checksum of the sample checkpoint's bytes, as the layout wrote
  // them before the codec walked the field list: reordering, resizing or
  // dropping a field changes it, and must come with a version bump.
  static_assert(kCheckpointVersion == 6);
  EXPECT_EQ(checkpoint_checksum(serialize_checkpoint(sample_checkpoint())),
            0xd93bff67e52f80feULL);
}

TEST(Checkpoint, SaveLoadRoundTripsThroughAFile) {
  const TempFile file("roundtrip.vckp");
  const FleetCheckpoint ckpt = sample_checkpoint();
  save_checkpoint(ckpt, file.path());
  const FleetCheckpoint back = load_checkpoint(file.path());
  EXPECT_EQ(back.fingerprint, ckpt.fingerprint);
  ASSERT_EQ(back.records.size(), ckpt.records.size());
  expect_identical(back.records[0].result, ckpt.records[0].result);
}

TEST(Checkpoint, MissingFileIsATypedError) {
  EXPECT_THROW((void)load_checkpoint("/nonexistent/dir/fleet.vckp"),
               CheckpointError);
}

TEST(Checkpoint, RejectsEveryHeaderCorruption) {
  std::vector<std::uint8_t> blob = serialize_checkpoint(sample_checkpoint());

  // Truncations at every boundary-ish prefix.
  const std::vector<std::size_t> prefixes = {0,  4,  11, 31,
                                             blob.size() - 9,
                                             blob.size() - 1};
  for (std::size_t keep : prefixes)
    EXPECT_THROW(
        (void)deserialize_checkpoint(
            std::span<const std::uint8_t>(blob.data(), keep)),
        CheckpointError)
        << "prefix " << keep;

  // A single flipped bit anywhere breaks the checksum.
  const std::vector<std::size_t> flips = {0, 5, 17, blob.size() / 2,
                                          blob.size() - 3};
  for (std::size_t at : flips) {
    std::vector<std::uint8_t> bad = blob;
    bad[at] ^= 0x40;
    EXPECT_THROW((void)deserialize_checkpoint(bad), CheckpointError)
        << "flip at " << at;
  }
}

/// Corrupts `blob` at `at`, then re-seals the trailing checksum — proving
/// the structural validation catches it on its own, without the checksum.
std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> blob,
                                   std::size_t at, std::uint8_t value) {
  blob[at] = value;
  const std::uint64_t sum = checkpoint_checksum(
      std::span<const std::uint8_t>(blob.data(), blob.size() - 8));
  for (int i = 0; i < 8; ++i)
    blob[blob.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  return blob;
}

TEST(Checkpoint, BoundsChecksHoldEvenWithAValidChecksum) {
  const std::vector<std::uint8_t> blob =
      serialize_checkpoint(sample_checkpoint());

  // Bad magic (offset 0) and foreign version (offset 4).
  EXPECT_THROW((void)deserialize_checkpoint(resealed(blob, 0, 0xff)),
               CheckpointError);
  EXPECT_THROW((void)deserialize_checkpoint(resealed(blob, 4, 0x7f)),
               CheckpointError);
  // Absurd record count (offset 28, after the v4 bundle_hash): must be
  // rejected before allocation.
  EXPECT_THROW((void)deserialize_checkpoint(resealed(blob, 31, 0xff)),
               CheckpointError);
  // First record's slot (offset 32) beyond slot_count.
  EXPECT_THROW((void)deserialize_checkpoint(resealed(blob, 32, 0xee)),
               CheckpointError);
  // Invalid status enumerator (offset 36).
  EXPECT_THROW((void)deserialize_checkpoint(resealed(blob, 36, 0x9)),
               CheckpointError);
}

TEST(Checkpoint, FingerprintCoversWorkloadButNotParallelism) {
  const FleetConfig base = tiny_fleet(3);
  const std::uint64_t fp = fleet_fingerprint(base);
  EXPECT_EQ(fp, fleet_fingerprint(base));  // pure

  // Parallelism knobs and checkpoint paths are resumption-neutral.
  FleetConfig same = base;
  same.parallel_sessions = 7;
  same.session.worker_threads = 9;
  same.checkpoint_file = "a.vckp";
  same.resume_file = "b.vckp";
  same.kill_after_slots = 1;
  EXPECT_EQ(fp, fleet_fingerprint(same));

  // Everything result-determining must move the fingerprint.
  FleetConfig diff = base;
  diff.sessions = 4;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.seed = 2;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.user_count = 2;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.enable_multicast = false;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.policy_overrides["grouping"] = "pairs_only";
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBeamProbeFail;
  e.t_s = 0.1;
  diff.session.fault_plan.add(e);
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.supervision.max_retries = 1;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.tick_budget = 10;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.overload.enabled = true;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.overload.recover_ticks = 4;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.session.overload.encode_budget_bytes = 2.0e6;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.admission.enabled = true;
  EXPECT_NE(fp, fleet_fingerprint(diff));
  diff = base;
  diff.admission.capacity = 2;
  EXPECT_NE(fp, fleet_fingerprint(diff));
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalToUninterrupted) {
  const TempFile file("resume.vckp");
  FleetConfig fc = tiny_fleet(4);

  const FleetResult uninterrupted = run_fleet(fc);

  // Phase 1: killed after two newly finished slots (serial = exact).
  fc.checkpoint_file = file.path();
  fc.kill_after_slots = 2;
  EXPECT_THROW((void)run_fleet(fc), FleetKilled);
  {
    const FleetCheckpoint ckpt = load_checkpoint(file.path());
    EXPECT_EQ(ckpt.slot_count, 4u);
    EXPECT_EQ(ckpt.records.size(), 2u);
    EXPECT_EQ(ckpt.fingerprint, fleet_fingerprint(tiny_fleet(4)));
  }

  // Phase 2: resume the remaining slots; serial and parallel must both
  // reproduce the uninterrupted fleet bit-for-bit.
  fc.kill_after_slots = 0;
  fc.checkpoint_file.clear();
  fc.resume_file = file.path();
  expect_fleet_identical(uninterrupted, run_fleet(fc));
  fc.parallel_sessions = 4;
  expect_fleet_identical(uninterrupted, run_fleet(fc));
}

TEST(Checkpoint, ResumeRestoresStoredSlotsVerbatim) {
  // Doctor a stored result, re-save, resume: the doctored value must come
  // back untouched — proof the restored slot is never recomputed.
  const TempFile file("verbatim.vckp");
  FleetConfig fc = tiny_fleet(3);
  fc.checkpoint_file = file.path();
  fc.kill_after_slots = 1;
  EXPECT_THROW((void)run_fleet(fc), FleetKilled);

  FleetCheckpoint ckpt = load_checkpoint(file.path());
  ASSERT_EQ(ckpt.records.size(), 1u);
  const std::uint32_t slot = ckpt.records[0].slot;
  ckpt.records[0].result.custom_beam_uses = 987'654;
  ckpt.records[0].outcome.attempts = 7;
  save_checkpoint(ckpt, file.path());

  fc.kill_after_slots = 0;
  fc.checkpoint_file.clear();
  fc.resume_file = file.path();
  const FleetResult resumed = run_fleet(fc);
  EXPECT_EQ(resumed.sessions[slot].custom_beam_uses, 987'654u);
  EXPECT_EQ(resumed.outcomes[slot].attempts, 7u);
}

TEST(Checkpoint, ResumeRejectsAForeignConfiguration) {
  const TempFile file("foreign.vckp");
  FleetConfig fc = tiny_fleet(3);
  fc.checkpoint_file = file.path();
  fc.kill_after_slots = 1;
  EXPECT_THROW((void)run_fleet(fc), FleetKilled);

  FleetConfig other = tiny_fleet(3);
  other.session.seed = 99;  // different workload, same shape
  other.resume_file = file.path();
  EXPECT_THROW((void)run_fleet(other), CheckpointError);
}

TEST(Checkpoint, ResumeRejectsAMismatchedBundleHashSpecifically) {
  // A checkpoint whose recorded bundle hash disagrees with the resuming
  // fleet's workload must fail with the bundle-specific message — the
  // shared-content analogue of the fingerprint check, and the guard that
  // keeps a resumed fleet from silently reading different artifacts.
  const TempFile file("bundlehash.vckp");
  FleetConfig fc = tiny_fleet(3);
  fc.session.content_seed = 4242;
  fc.checkpoint_file = file.path();
  fc.kill_after_slots = 1;
  EXPECT_THROW((void)run_fleet(fc), FleetKilled);

  FleetCheckpoint ckpt = load_checkpoint(file.path());
  EXPECT_EQ(ckpt.bundle_hash, workload_bundle_hash(fc.session));
  ckpt.bundle_hash ^= 1;  // fingerprint untouched: only the bundle check fires
  save_checkpoint(ckpt, file.path());

  fc.kill_after_slots = 0;
  fc.checkpoint_file.clear();
  fc.resume_file = file.path();
  try {
    (void)run_fleet(fc);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("workload bundle hash"),
              std::string::npos)
        << err.what();
  }
}

TEST(Checkpoint, ContinueInPlaceUsesOneFileForBothRoles) {
  const TempFile file("inplace.vckp");
  FleetConfig fc = tiny_fleet(3);
  const FleetResult uninterrupted = run_fleet(fc);

  fc.checkpoint_file = file.path();
  fc.kill_after_slots = 1;
  EXPECT_THROW((void)run_fleet(fc), FleetKilled);

  fc.kill_after_slots = 0;
  fc.resume_file = file.path();  // same file: checkpoint while resuming
  expect_fleet_identical(uninterrupted, run_fleet(fc));
  // The file now holds every slot; a second resume runs nothing new.
  EXPECT_EQ(load_checkpoint(file.path()).records.size(), 3u);
  expect_fleet_identical(uninterrupted, run_fleet(fc));
}

}  // namespace
}  // namespace volcast::core
