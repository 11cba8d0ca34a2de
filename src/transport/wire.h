// Simulated packet wire: per-train packetization, seeded loss, FEC and
// deadline-bounded NACK recovery.
//
// The session's TransportStage hands each (user, frame) transmission to
// `transmit_train`, which models what the scheduler's granted bits become
// on an actual multicast wire: the frame is segmented into tiles and
// MTU-sized packets, every packet is either delivered or dropped by a
// seeded per-user loss process (the residual PER of the backed-off
// multicast MCS, optionally sharpened by a Gilbert–Elliott burst chain
// driven from the fault injector), and the receiver recovers losses with
// striped-XOR FEC (transport/fec.h) and/or NACK retransmission rounds that
// race the frame deadline. Tiles the recovery path cannot rebuild in time
// are *failed*: the stage routes those frames through the player's
// loss-concealment path exactly as a corrupted frame would be.
//
// Determinism: every random draw is a splitmix64 hash of
// (seed, user, sequence number) — no sequential RNG state — and the
// per-user ReceiverState advances only inside the session's serial
// delivery loop, so results are bit-identical at any worker_threads /
// parallel_sessions setting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace volcast::transport {

/// Which recovery machinery the wire runs. kGoodput is the legacy
/// "scheduler goodput is delivered bits" model — no packetization at all —
/// kept as the default policy so existing results are untouched.
enum class TransportPolicy : std::uint8_t {
  kGoodput = 0,  // no wire: bits arrive exactly as scheduled
  kFec,          // FEC groups only, no retransmission
  kNack,         // NACK retransmission only, no parity
  kHybrid,       // FEC first, NACK for what the parity cannot rebuild
};

[[nodiscard]] const char* to_string(TransportPolicy policy) noexcept;

/// Bytes of header each packet carries on the air: magic 2, version 1,
/// flags 1, seq 4, tick 4, frame 2, tile 2, FEC group 4, index/k/r 3,
/// reserved 1, payload length 2 and checksum 2.
inline constexpr std::size_t kHeaderWireSize = 28;

// --- wire + recovery constants ---------------------------------------------
// Common mmWave WLAN practice: ~1.4 KB MTU, 8+2 FEC groups ≈ 25% overhead,
// 2 NACK rounds at a 4 ms in-room RTT inside the 33 ms frame budget.

inline constexpr std::size_t kMtuBytes = 1400;    // payload bytes per packet
inline constexpr std::size_t kTileBytes = 32768;  // tile segmentation unit
inline constexpr int kFecGroupData = 8;    // data packets per FEC group (k)
inline constexpr int kFecGroupParity = 2;  // parity packets per group (r)
inline constexpr int kNackRounds = 2;      // max retransmission rounds/train
inline constexpr double kNackRttMs = 4.0;  // logical cost of one NACK round
/// Residual PER target of the multicast MCS choice: the wire's base
/// per-packet loss probability comes from the PER of the *selected*
/// backed-off MCS, which sits at or below this target.
inline constexpr double kTargetPer = 0.01;
/// Gilbert–Elliott chain: probability of entering the bad (bursty) state
/// per packet, and of leaving it per packet. The bad-state loss probability
/// itself comes from the active kBurstLoss fault magnitude.
inline constexpr double kBurstEnter = 0.02;
inline constexpr double kBurstExit = 0.2;

static_assert(kMtuBytes > 0 && kTileBytes >= kMtuBytes,
              "a tile must hold at least one MTU");
static_assert(kFecGroupData >= 1 && kFecGroupData <= 255);
static_assert(kFecGroupParity >= 0 && kFecGroupParity <= kFecGroupData,
              "parity packets per group must not exceed data packets");
static_assert(kNackRounds >= 0 && kNackRttMs > 0.0);
static_assert(kTargetPer >= 0.0 && kTargetPer < 1.0);
static_assert(kBurstEnter >= 0.0 && kBurstEnter <= 1.0 && kBurstExit > 0.0 &&
              kBurstExit <= 1.0);

/// Per-user receiver state. Mutated only inside the serial delivery loop,
/// folded in user-slot order.
struct ReceiverState {
  std::uint32_t next_seq = 0;  // next sequence number this receiver assigns
  bool burst_bad = false;      // Gilbert–Elliott chain state
  /// EWMA of residual loss after FEC (before NACK), the cross-layer signal
  /// fed to the rate adapter.
  double residual_loss = 0.0;
};

/// One scheduled transmission, as the transport stage sees it.
struct TrainParams {
  double frame_bits = 0.0;   // bits granted to this (user, frame)
  double per = 0.0;          // base per-packet loss probability
  double burst_loss = 0.0;   // bad-state loss probability (0 = chain off)
  double deadline_ms = 0.0;  // budget left for recovery after transfer
  std::uint64_t seed = 0;    // session seed
  std::size_t user = 0;
  std::uint32_t tick = 0;
  std::uint16_t frame = 0;
};

/// What one train did on the wire.
struct TrainResult {
  std::uint64_t tiles = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t parity_packets = 0;
  std::uint64_t lost_packets = 0;        // first-transmission losses
  std::uint64_t retransmitted_packets = 0;
  std::uint64_t nacks = 0;               // NACK messages sent upstream
  std::uint64_t fec_recovered_tiles = 0;  // damaged tiles FEC fully rebuilt
  std::uint64_t nack_recovered_tiles = 0;  // tiles rescued by retransmission
  std::uint64_t failed_tiles = 0;          // tiles that missed the deadline
  /// Data-packet loss ratio after FEC repair, before NACK: the residual
  /// the rate adapter should react to.
  double residual_loss = 0.0;
  /// Added latency of the slowest recovered tile (NACK rounds * RTT).
  double recovery_ms = 0.0;
  /// Extra bits the wire cost beyond the frame itself.
  double parity_bits = 0.0;
  double retransmit_bits = 0.0;
  double header_bits = 0.0;

  /// True when every tile survived (possibly via recovery).
  [[nodiscard]] bool frame_ok() const noexcept { return failed_tiles == 0; }
};

/// Session-lifetime wire totals, folded into SessionResult. Scalars only
/// (the recovery-latency distribution lives in the session's sample
/// vector until result finalization).
struct TransportReport {
  std::uint64_t trains = 0;
  std::uint64_t tiles = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t parity_packets = 0;
  std::uint64_t lost_packets = 0;
  std::uint64_t retransmitted_packets = 0;
  std::uint64_t nacks = 0;
  std::uint64_t fec_recovered_tiles = 0;
  std::uint64_t nack_recovered_tiles = 0;
  std::uint64_t deadline_missed_tiles = 0;
  double residual_loss_mean = 0.0;  // mean residual loss across trains
  double recovery_ms_p50 = 0.0;     // NACK recovery latency percentiles
  double recovery_ms_p99 = 0.0;
  double recovery_ms_max = 0.0;

  /// Accumulates one train (does not touch the latency percentiles).
  void add(const TrainResult& train) noexcept;
};

/// Simulates one packet train end to end: segmentation, per-packet loss
/// draws, FEC repair, NACK rounds within the deadline. Advances `rx`
/// (sequence numbers, burst-chain state, residual-loss EWMA).
/// kGoodput never reaches the wire, so `policy` here is kFec/kNack/kHybrid.
[[nodiscard]] TrainResult transmit_train(TransportPolicy policy,
                                         const TrainParams& params,
                                         ReceiverState& rx);

/// Statistics hook: sends `count` bare packets through the same
/// Gilbert–Elliott chain + loss draw transmit_train uses (no tiles, FEC or
/// NACK) and returns one bool per packet, true = lost. With per = 0 and
/// burst_loss = 1 the sequence is exactly the chain's bad-state indicator,
/// which is what lets tests check the empirical burst-length distribution
/// against the model.
[[nodiscard]] std::vector<bool> wire_loss_sequence(const TrainParams& params,
                                                 std::size_t count);

}  // namespace volcast::transport
