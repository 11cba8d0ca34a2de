// Fleet checkpoint/restore: versioned, checksummed persistence of finished
// fleet slots, so a killed long run resumes instead of recomputing.
//
// The binary layout (all little-endian, trailing FNV-1a checksum):
//
//   u32  magic           "VCKP"
//   u32  version         kCheckpointVersion
//   u64  fingerprint     hash of every result-determining FleetConfig field
//   u64  bundle_hash     WorkloadKey hash of the shared artifact set
//   u32  slot_count      sessions in the fleet this file belongs to
//   u32  record_count    finished slots stored
//   record x record_count (sorted by slot):
//     u32  slot
//     u8   status, u8 error_class, u32 attempts, u64 seed, u64 backoff
//     u8   admission, u64 admission_wait_ticks
//     u32  message_len, message bytes
//     u32  result_len,  serialized SessionResult (bit-exact doubles)
//   u64  checksum        FNV-1a over every preceding byte
//
// Every load failure — truncation, bit flips, a corrupted length field, a
// foreign version, a fingerprint from a different config — throws the
// typed CheckpointError; a hostile file can never trigger UB or an
// unbounded allocation (lengths are validated against the remaining bytes
// before any allocation). Restored slots are byte-for-byte what the
// original run produced, which is what makes a resumed FleetResult
// bit-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/supervisor.h"

namespace volcast::core {

inline constexpr std::uint32_t kCheckpointMagic = 0x504b4356u;  // "VCKP"
// v2: SessionResult gained the packet-wire TransportReport block.
// v3: SessionResult gained the TileReport block; the fingerprint now
//     covers content_seed (shared-content fleets must not resume foreign
//     files).
// v4: header gained bundle_hash (the WorkloadKey hash of the shared
//     workload bundle, also folded into the fingerprint), so resume
//     rejects a checkpoint taken against different shared content with a
//     specific message instead of a generic fingerprint mismatch.
// v5: SessionResult gained the OverloadReport block; SlotOutcome gained
//     the admission outcome + wait ticks (SlotStatus::kDenied became a
//     valid status); the fingerprint now covers the overload and fleet
//     admission configs.
// v6: the fingerprint no longer covers the governor tuning, packet-wire,
//     health, backlog, supported-FPS and admission hold values (now
//     constants) and hashes the session tick_budget once.
inline constexpr std::uint32_t kCheckpointVersion = 6;

/// Typed rejection of an unusable checkpoint (corrupt, truncated, foreign
/// version, or produced by a different fleet configuration).
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One finished slot: its supervision outcome plus (for completed slots)
/// the bit-exact result.
struct SlotRecord {
  std::uint32_t slot = 0;
  SlotOutcome outcome;
  SessionResult result;
};

/// In-memory image of a checkpoint file.
struct FleetCheckpoint {
  std::uint64_t fingerprint = 0;
  /// workload_bundle_hash(config.session) of the fleet that wrote the
  /// file: the identity of the shared artifact set every slot read.
  std::uint64_t bundle_hash = 0;
  std::uint32_t slot_count = 0;
  std::vector<SlotRecord> records;  // kept sorted by slot
};

/// FNV-1a64 over `data` — the same checksum the VideoStore blob uses,
/// exposed so tests can re-seal deliberately corrupted checkpoints.
[[nodiscard]] std::uint64_t checkpoint_checksum(
    std::span<const std::uint8_t> data) noexcept;

/// Hash of every result-determining field of the fleet configuration
/// (session template incl. fault plan, replay traces, ablation switches
/// and policy overrides; fleet size; supervision knobs). Deliberately
/// excludes pure-parallelism knobs (worker_threads, parallel_sessions) and
/// the checkpoint paths themselves: resuming at a different thread count
/// is sound, resuming under a different workload is not.
[[nodiscard]] std::uint64_t fleet_fingerprint(const FleetConfig& config);

[[nodiscard]] std::vector<std::uint8_t> serialize_checkpoint(
    const FleetCheckpoint& checkpoint);
/// Throws CheckpointError on any malformed input.
[[nodiscard]] FleetCheckpoint deserialize_checkpoint(
    std::span<const std::uint8_t> blob);

/// Atomic file write (temp file + rename), so a kill mid-checkpoint leaves
/// either the previous complete file or the new one, never a torn mix.
void save_checkpoint(const FleetCheckpoint& checkpoint,
                     const std::string& path);
/// Throws CheckpointError when the file is missing, unreadable or invalid.
[[nodiscard]] FleetCheckpoint load_checkpoint(const std::string& path);

}  // namespace volcast::core
