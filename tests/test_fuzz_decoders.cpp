// Failure injection: decoders fed corrupted, truncated or hostile inputs
// must fail cleanly — throw or return bounded garbage — never crash,
// over-allocate or hang. These are deterministic fuzz sweeps (seeded
// corruption), so failures reproduce.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "pointcloud/codec.h"
#include "trace/mobility.h"
#include "trace/trace_io.h"

namespace volcast {
namespace {

vv::FrameSoA sample_cloud() {
  Rng rng(5);
  vv::FrameSoA cloud;
  for (int i = 0; i < 2000; ++i) {
    const geo::Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0, 2)};
    cloud.push_back(p, static_cast<std::uint8_t>(rng.uniform_int(0, 255)), 10,
                    20);
  }
  return cloud;
}

/// Flips `flips` random bits of `data` (deterministic per seed).
std::vector<std::uint8_t> corrupted(std::vector<std::uint8_t> data,
                                    std::uint64_t seed, int flips) {
  Rng rng(seed);
  for (int i = 0; i < flips; ++i) {
    const auto byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
    data[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
  }
  return data;
}

/// Inserts `count` random bytes at random offsets (deterministic per seed).
/// Models framing drift from extra bytes in a stream.
std::vector<std::uint8_t> with_insertions(std::vector<std::uint8_t> data,
                                          std::uint64_t seed, int count) {
  Rng rng(seed ^ 0x125ULL);
  for (int i = 0; i < count; ++i) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(data.size())));
    data.insert(data.begin() + static_cast<long>(at),
                static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return data;
}

/// Deletes `count` random bytes (deterministic per seed). Models dropped
/// bytes in a stream — every downstream field shifts.
std::vector<std::uint8_t> with_deletions(std::vector<std::uint8_t> data,
                                         std::uint64_t seed, int count) {
  Rng rng(seed ^ 0xde1ULL);
  for (int i = 0; i < count && !data.empty(); ++i) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
    data.erase(data.begin() + static_cast<long>(at));
  }
  return data;
}

TEST(FuzzDecoders, MortonCodecSurvivesBitFlips) {
  const auto blob = vv::encode(sample_cloud());
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto bad = corrupted(blob, seed, 3);
    try {
      const auto cloud = vv::decode_soa(bad);
      // Garbage is fine; unbounded output is not.
      EXPECT_LE(cloud.size(), 64u * 8u * bad.size() + 64u);
    } catch (const std::runtime_error&) {
      // Clean rejection is fine too.
    }
  }
}

TEST(FuzzDecoders, MortonCodecSurvivesTruncation) {
  const auto blob = vv::encode(sample_cloud());
  for (std::size_t keep = 0; keep < blob.size(); keep += 97) {
    const std::vector<std::uint8_t> cut(blob.begin(),
                                        blob.begin() + static_cast<long>(keep));
    try {
      const auto cloud = vv::decode_soa(cut);
      EXPECT_LE(cloud.size(), 64u * 8u * (cut.size() + 8) + 64u);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzDecoders, MortonCodecRejectsHugeCountHeader) {
  auto blob = vv::encode(sample_cloud());
  // Overwrite the count field (bytes 4..7, little endian) with 2^32 - 1.
  blob[4] = blob[5] = blob[6] = blob[7] = 0xff;
  EXPECT_THROW((void)vv::decode_soa(blob), std::runtime_error);
}

TEST(FuzzDecoders, TraceReaderRejectsHugeCount) {
  EXPECT_THROW((void)trace::trace_from_string("VCTRACE 1 HM 30 4000000000\n"),
               std::runtime_error);
}

TEST(FuzzDecoders, TraceReaderSurvivesGarbageBodies) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    std::string text = "VCTRACE 1 HM 30 3\n";
    for (int j = 0; j < 20; ++j)
      text += static_cast<char>(rng.uniform_int(32, 126));
    EXPECT_THROW((void)trace::trace_from_string(text), std::runtime_error);
  }
}

TEST(FuzzDecoders, EmptyAndTinyInputs) {
  for (std::size_t n : {0u, 1u, 4u, 16u, 57u}) {
    const std::vector<std::uint8_t> tiny(n, 0x5a);
    EXPECT_THROW((void)vv::decode_soa(tiny), std::runtime_error);
  }
}

TEST(FuzzDecoders, MortonCodecSurvivesInsertionsAndDeletions) {
  const auto blob = vv::encode(sample_cloud());
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    for (const auto& bad : {with_insertions(blob, seed, 4),
                            with_deletions(blob, seed, 4)}) {
      try {
        const auto cloud = vv::decode_soa(bad);
        EXPECT_LE(cloud.size(), 64u * 8u * bad.size() + 64u);
      } catch (const std::runtime_error&) {
      }
    }
  }
}

// --- fleet checkpoints -----------------------------------------------------

core::FleetCheckpoint sample_fleet_checkpoint() {
  core::FleetCheckpoint ckpt;
  ckpt.fingerprint = 0xfeed'beef'cafe'd00dULL;
  ckpt.slot_count = 8;
  Rng rng(13);
  for (std::uint32_t slot : {1u, 3u, 6u}) {
    core::SlotRecord rec;
    rec.slot = slot;
    rec.outcome.status = core::SlotStatus::kCompleted;
    rec.outcome.attempts = 1 + slot % 2;
    rec.outcome.seed = 100 + slot;
    rec.outcome.message = slot == 3 ? "recovered after one crash" : "";
    rec.result.qoe.duration_s = 2.0;
    for (int u = 0; u < 3; ++u) {
      sim::UserQoe q;
      q.user = static_cast<std::size_t>(u);
      q.displayed_fps = rng.uniform(20.0, 30.0);
      q.stall_time_s = rng.uniform(0.0, 0.5);
      q.mean_goodput_mbps = rng.uniform(100.0, 900.0);
      rec.result.qoe.users.push_back(q);
    }
    rec.result.custom_beam_uses = static_cast<std::size_t>(slot) * 11;
    ckpt.records.push_back(rec);
  }
  return ckpt;
}

TEST(FuzzDecoders, CheckpointDetectsBitFlips) {
  const auto blob = core::serialize_checkpoint(sample_fleet_checkpoint());
  // Checksummed end to end: every flip must be rejected, typed.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    EXPECT_THROW(
        (void)core::deserialize_checkpoint(corrupted(blob, seed, 1)),
        core::CheckpointError);
  }
}

TEST(FuzzDecoders, CheckpointDetectsInsertionsDeletionsTruncation) {
  const auto blob = core::serialize_checkpoint(sample_fleet_checkpoint());
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    EXPECT_THROW((void)core::deserialize_checkpoint(
                     with_insertions(blob, seed, 3)),
                 core::CheckpointError);
    EXPECT_THROW((void)core::deserialize_checkpoint(
                     with_deletions(blob, seed, 3)),
                 core::CheckpointError);
  }
  for (std::size_t keep = 0; keep < blob.size(); keep += 7) {
    const std::vector<std::uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<long>(keep));
    EXPECT_THROW((void)core::deserialize_checkpoint(cut),
                 core::CheckpointError);
  }
}

TEST(FuzzDecoders, CheckpointLengthFieldCorruptionFailsBoundedly) {
  // Corrupt every byte in turn, re-seal the checksum so the structural
  // validation stands alone, and require a typed rejection or a bounded
  // successful parse — never a crash, hang or unbounded allocation.
  const auto blob = core::serialize_checkpoint(sample_fleet_checkpoint());
  for (std::size_t at = 0; at + 8 < blob.size(); ++at) {
    for (std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0x7f},
                               std::uint8_t{0xff}}) {
      std::vector<std::uint8_t> bad = blob;
      bad[at] = value;
      const std::uint64_t sum = core::checkpoint_checksum(
          std::span<const std::uint8_t>(bad.data(), bad.size() - 8));
      for (int i = 0; i < 8; ++i)
        bad[bad.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(sum >> (8 * i));
      try {
        const core::FleetCheckpoint ckpt = core::deserialize_checkpoint(bad);
        EXPECT_LE(ckpt.records.size(), bad.size());  // bounded output
      } catch (const core::CheckpointError&) {
        // Typed rejection is the expected common case.
      }
    }
  }
}

// --- trace round trips -----------------------------------------------------

trace::Trace sample_trace() {
  return trace::generate_trace(trace::MobilityParams{}, /*seed=*/7,
                               /*samples=*/60);
}

TEST(FuzzDecoders, TraceSurvivesByteCorruptionSweeps) {
  const std::string text = trace::trace_to_string(sample_trace());
  const std::vector<std::uint8_t> blob(text.begin(), text.end());
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    for (const auto& bad : {corrupted(blob, seed, 3),
                            with_insertions(blob, seed, 3),
                            with_deletions(blob, seed, 3)}) {
      const std::string mutated(bad.begin(), bad.end());
      try {
        const trace::Trace t = trace::trace_from_string(mutated);
        // Parsed despite corruption: the result must still be bounded.
        EXPECT_LE(t.poses.size(), 1'000'000u);
      } catch (const std::runtime_error&) {
        // Clean rejection is the expected common case.
      }
    }
  }
}

TEST(FuzzDecoders, TraceSurvivesTruncation) {
  const std::string text = trace::trace_to_string(sample_trace());
  for (std::size_t keep = 0; keep < text.size(); keep += 41) {
    try {
      (void)trace::trace_from_string(text.substr(0, keep));
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace volcast
