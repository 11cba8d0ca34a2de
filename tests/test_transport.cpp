// Packet transport subsystem: FEC stripe algebra (the erasure counter the
// wire runs, checked against the byte-level parity and recovery),
// train-level loss/recovery behaviour (including the hybrid >= ablation
// acceptance bar), and the determinism contract of wire-enabled sessions
// and fleets under burst-loss chaos.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/fleet.h"
#include "core/session.h"
#include "fault/fault_plan.h"
#include "session_compare.h"
#include "transport/fec.h"
#include "transport/wire.h"

namespace volcast::transport {
namespace {

// -------------------------------------------------------------------- FEC

std::vector<std::uint8_t> sample_payload(std::size_t n) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i)
    payload[i] = static_cast<std::uint8_t>((i * 31 + 7) & 0xFF);
  return payload;
}

std::vector<std::vector<std::uint8_t>> sample_group(int k) {
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < k; ++i) {
    // Varying lengths so the zero-padding path is on.
    data.push_back(sample_payload(100 + static_cast<std::size_t>(i) * 37));
  }
  return data;
}

TEST(TransportFec, RecoverReproducesAnySingleLossPerStripe) {
  const int k = 8, r = 2;
  const auto data = sample_group(k);
  const auto parity = fec::make_parity(data, r);
  ASSERT_EQ(parity.size(), static_cast<std::size_t>(r));

  for (int lost = 0; lost < k; ++lost) {
    auto damaged = data;
    const std::size_t original_len = damaged[lost].size();
    damaged[lost].clear();
    const auto rebuilt =
        fec::recover(damaged, parity, lost, original_len);
    EXPECT_EQ(rebuilt, data[static_cast<std::size_t>(lost)])
        << "lost index " << lost;
  }
}

/// Arrival flags of N packets, every one arrived.
template <std::size_t N>
std::array<bool, N> all_arrived() {
  std::array<bool, N> flags;
  flags.fill(true);
  return flags;
}

TEST(TransportFec, TwoLossesInDistinctStripesRecoverable) {
  auto data_arrived = all_arrived<8>();
  const auto parity_arrived = all_arrived<2>();
  data_arrived[0] = false;  // stripe 0
  data_arrived[3] = false;  // stripe 1
  EXPECT_EQ(fec::count_recoverable(data_arrived, parity_arrived), 2);
}

TEST(TransportFec, TwoLossesInSameStripeNotRecoverable) {
  auto data_arrived = all_arrived<8>();
  const auto parity_arrived = all_arrived<2>();
  data_arrived[0] = false;  // stripe 0
  data_arrived[2] = false;  // stripe 0 again
  EXPECT_EQ(fec::count_recoverable(data_arrived, parity_arrived), 0);
}

TEST(TransportFec, LostParityDisablesItsStripe) {
  auto data_arrived = all_arrived<8>();
  auto parity_arrived = all_arrived<2>();
  data_arrived[1] = false;   // stripe 1
  parity_arrived[1] = false;  // stripe 1's parity gone too
  // The other stripe is intact, so nothing is countable.
  EXPECT_EQ(fec::count_recoverable(data_arrived, parity_arrived), 0);
}

TEST(TransportFec, NoParityMeansOnlyCleanGroupsSurvive) {
  auto all = all_arrived<4>();
  EXPECT_EQ(fec::count_recoverable(all, {}), 0);
  all[2] = false;
  // The loss stays unrepaired: nothing can rebuild it without parity.
  EXPECT_EQ(fec::count_recoverable(all, {}), 0);
}

TEST(TransportFec, CountRecoverableMatchesByteRecovery) {
  // The wire counts repairs from arrival booleans alone; the byte-level
  // parity and recovery are the reference. Over random groups and random
  // data and parity losses, the count must equal the number of lost data
  // packets that recover() rebuilds byte for byte from what arrived.
  // recover() needs the stripe's parity, so a receiver runs it only when
  // that parity arrived. Payload bytes are nonzero, so a stripe with two
  // losses can never rebuild a packet by accident.
  Rng rng(0xfecfecULL);
  int rebuilt_total = 0;
  int lost_total = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int k = static_cast<int>(rng.uniform_int(1, 16));
    const int r = static_cast<int>(rng.uniform_int(1, 4));
    const double loss = rng.uniform(0.05, 0.6);
    std::vector<std::vector<std::uint8_t>> data(static_cast<std::size_t>(k));
    for (auto& packet : data) {
      packet.resize(static_cast<std::size_t>(rng.uniform_int(1, 48)));
      for (auto& byte : packet)
        byte = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    const auto parity = fec::make_parity(data, r);
    ASSERT_EQ(parity.size(), static_cast<std::size_t>(r));

    std::array<bool, 16> data_flags{};
    std::array<bool, 4> parity_flags{};
    const std::span<bool> data_arrived(data_flags.data(), data.size());
    const std::span<bool> parity_arrived(parity_flags.data(), parity.size());
    for (std::size_t i = 0; i < data.size(); ++i)
      data_arrived[i] = !rng.chance(loss);
    for (std::size_t j = 0; j < parity.size(); ++j)
      parity_arrived[j] = !rng.chance(loss);

    // What the receiver holds: lost data packets are empty.
    auto got_data = data;
    for (std::size_t i = 0; i < data.size(); ++i)
      if (!data_arrived[i]) got_data[i].clear();

    int rebuilt = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data_arrived[i]) continue;
      ++lost_total;
      if (parity_arrived[i % parity.size()] &&
          fec::recover(got_data, parity, static_cast<int>(i),
                       data[i].size()) == data[i])
        ++rebuilt;
    }
    ASSERT_EQ(fec::count_recoverable(data_arrived, parity_arrived), rebuilt)
        << "trial " << trial << " k " << k << " r " << r;
    rebuilt_total += rebuilt;
  }
  // The sweep exercises both outcomes, not just one.
  EXPECT_GT(rebuilt_total, 0);
  EXPECT_LT(rebuilt_total, lost_total);
}

// ------------------------------------------------------------------- wire

TrainParams lossy_params(std::uint32_t tick) {
  TrainParams p;
  p.frame_bits = 1.5e6;  // ~6 tiles of ~24 data packets each
  p.per = 0.05;
  p.burst_loss = 0.5;
  p.deadline_ms = 12.0;
  p.seed = 99;
  p.user = 1;
  p.tick = tick;
  p.frame = static_cast<std::uint16_t>(tick % 30);
  return p;
}

TEST(TransportWire, TrainIsDeterministic) {
  ReceiverState rx_a, rx_b;
  for (std::uint32_t tick = 0; tick < 20; ++tick) {
    const TrainParams p = lossy_params(tick);
    const TrainResult a = transmit_train(TransportPolicy::kHybrid, p, rx_a);
    const TrainResult b = transmit_train(TransportPolicy::kHybrid, p, rx_b);
    EXPECT_EQ(a.lost_packets, b.lost_packets);
    EXPECT_EQ(a.failed_tiles, b.failed_tiles);
    EXPECT_EQ(a.retransmitted_packets, b.retransmitted_packets);
    EXPECT_BITEQ(a.residual_loss, b.residual_loss);
    EXPECT_BITEQ(a.recovery_ms, b.recovery_ms);
  }
  EXPECT_EQ(rx_a.next_seq, rx_b.next_seq);
  EXPECT_BITEQ(rx_a.residual_loss, rx_b.residual_loss);
}

TEST(TransportWire, LosslessWireDeliversEverything) {
  TrainParams p = lossy_params(0);
  p.per = 0.0;
  p.burst_loss = 0.0;
  ReceiverState rx;
  const TrainResult r = transmit_train(TransportPolicy::kHybrid, p, rx);
  EXPECT_GT(r.tiles, 0u);
  EXPECT_EQ(r.lost_packets, 0u);
  EXPECT_EQ(r.failed_tiles, 0u);
  EXPECT_EQ(r.retransmitted_packets, 0u);
  EXPECT_TRUE(r.frame_ok());
  EXPECT_BITEQ(r.residual_loss, 0.0);
  // Sequence numbers were still burned for every packet on the wire.
  EXPECT_EQ(rx.next_seq, r.data_packets + r.parity_packets);
}

TEST(TransportWire, TotalLossNeverHangsAndFailsEveryTile) {
  // Worst case the chaos flag can produce: every packet (and every
  // retransmission) is lost. The train must terminate with all tiles
  // failed — the concealment path's job — not loop or crash.
  TrainParams p = lossy_params(0);
  p.per = 1.0;
  p.burst_loss = 1.0;
  for (const TransportPolicy policy :
       {TransportPolicy::kFec, TransportPolicy::kNack,
        TransportPolicy::kHybrid}) {
    ReceiverState rx;
    const TrainResult r = transmit_train(policy, p, rx);
    EXPECT_EQ(r.failed_tiles, r.tiles) << to_string(policy);
    EXPECT_FALSE(r.frame_ok()) << to_string(policy);
    EXPECT_BITEQ(r.residual_loss, 1.0);
  }
}

TEST(TransportWire, ExtremeLossTrainsComplete) {
  // The heaviest loss a session's chaos plan can put on the wire: a 90%
  // base loss with the burst chain at full bad-state loss. Every policy
  // must finish the train, count its losses and fail what it could not
  // rebuild in time.
  TrainParams p = lossy_params(0);
  p.per = 0.9;
  p.burst_loss = 1.0;
  for (const TransportPolicy policy :
       {TransportPolicy::kFec, TransportPolicy::kNack,
        TransportPolicy::kHybrid}) {
    ReceiverState rx;
    const TrainResult r = transmit_train(policy, p, rx);
    EXPECT_GT(r.tiles, 0u) << to_string(policy);
    EXPECT_GT(r.lost_packets, 0u) << to_string(policy);
    EXPECT_GT(r.failed_tiles, 0u) << to_string(policy);
    EXPECT_LE(r.failed_tiles, r.tiles) << to_string(policy);
    EXPECT_GT(r.residual_loss, 0.5) << to_string(policy);
    EXPECT_EQ(rx.next_seq,
              r.data_packets + r.parity_packets + r.retransmitted_packets)
        << to_string(policy);
  }
}

TEST(TransportWire, ZeroDeadlineDisablesNack) {
  TrainParams p = lossy_params(3);
  p.deadline_ms = 0.0;  // transfer ate the whole frame budget
  ReceiverState rx;
  const TrainResult r = transmit_train(TransportPolicy::kNack, p, rx);
  EXPECT_EQ(r.retransmitted_packets, 0u);
  EXPECT_EQ(r.nack_recovered_tiles, 0u);
  EXPECT_BITEQ(r.recovery_ms, 0.0);
}

// The acceptance ablation, pinned at the train level with fresh receiver
// state per (policy, train) so all three policies see identical initial
// loss draws on the data packets they share. Hybrid >= FEC is structural
// (same packet sequence, NACK can only shrink the missing set); hybrid
// >= NACK holds statistically over the sweep (parity shifts later seq
// draws, so individual trains may differ either way).
TEST(TransportWire, HybridRecoversAtLeastAsManyTilesAsAblations) {
  std::uint64_t fec_failed = 0, nack_failed = 0, hybrid_failed = 0;
  std::uint64_t tiles = 0;
  for (std::uint32_t tick = 0; tick < 300; ++tick) {
    const TrainParams p = lossy_params(tick);
    ReceiverState rx_fec, rx_nack, rx_hybrid;
    const TrainResult fec_r = transmit_train(TransportPolicy::kFec, p, rx_fec);
    const TrainResult nack_r =
        transmit_train(TransportPolicy::kNack, p, rx_nack);
    const TrainResult hybrid_r =
        transmit_train(TransportPolicy::kHybrid, p, rx_hybrid);
    // Structural, so it must hold per train, not just in aggregate.
    EXPECT_LE(hybrid_r.failed_tiles, fec_r.failed_tiles) << "tick " << tick;
    fec_failed += fec_r.failed_tiles;
    nack_failed += nack_r.failed_tiles;
    hybrid_failed += hybrid_r.failed_tiles;
    tiles += hybrid_r.tiles;
  }
  // The sweep must actually exercise the loss machinery.
  EXPECT_GT(fec_failed + nack_failed, 0u);
  EXPECT_GT(tiles, 0u);
  EXPECT_LE(hybrid_failed, fec_failed);
  EXPECT_LE(hybrid_failed, nack_failed);
}

TEST(TransportWire, ResidualLossEwmaTracksLoss) {
  ReceiverState rx;
  TrainParams clean = lossy_params(0);
  clean.per = 0.0;
  clean.burst_loss = 0.0;
  (void)transmit_train(TransportPolicy::kFec, clean, rx);
  EXPECT_BITEQ(rx.residual_loss, 0.0);

  TrainParams lossy = lossy_params(1);
  lossy.per = 0.3;
  (void)transmit_train(TransportPolicy::kFec, lossy, rx);
  EXPECT_GT(rx.residual_loss, 0.0);
  const double after_loss = rx.residual_loss;

  // Back to clean air: the EWMA must decay, not latch.
  TrainParams clean2 = lossy_params(2);
  clean2.per = 0.0;
  clean2.burst_loss = 0.0;
  (void)transmit_train(TransportPolicy::kFec, clean2, rx);
  EXPECT_LT(rx.residual_loss, after_loss);
}

// ---------------------------------------------------- session-level wire

core::SessionConfig wire_session_config(const std::string& policy) {
  core::SessionConfig c;
  c.user_count = 3;
  c.duration_s = 2.0;
  c.master_points = 40'000;
  c.video_frames = 20;
  c.policy_overrides["transport"] = policy;
  fault::ChaosConfig chaos;
  chaos.seed = c.seed;
  chaos.duration_s = c.duration_s;
  chaos.user_count = c.user_count;
  chaos.ap_count = c.ap_count;
  chaos.intensity = 0.8;
  chaos.burst_loss_probability = 0.6;
  c.fault_plan = fault::random_plan(chaos);
  return c;
}

TEST(TransportSession, WireCountersLandInSessionResult) {
  core::Session session(wire_session_config("hybrid"));
  const core::SessionResult r = session.run();
  EXPECT_GT(r.transport.trains, 0u);
  EXPECT_GT(r.transport.data_packets, 0u);
  EXPECT_GT(r.transport.parity_packets, 0u);
  EXPECT_GT(r.transport.lost_packets, 0u);
  EXPECT_GE(r.transport.recovery_ms_max, r.transport.recovery_ms_p99);
  EXPECT_GE(r.transport.recovery_ms_p99, r.transport.recovery_ms_p50);
}

TEST(TransportSession, GoodputPolicyLeavesWireUntouched) {
  core::SessionConfig c = wire_session_config("hybrid");
  c.policy_overrides.erase("transport");
  const core::SessionResult r = core::Session(std::move(c)).run();
  EXPECT_EQ(r.transport.trains, 0u);
  EXPECT_EQ(r.transport.data_packets, 0u);
}

// The determinism-matrix entry for the wire: burst-loss chaos plus the
// hybrid recovery path, bit-identical across worker_threads.
TEST(TransportSession, WireRunBitIdenticalAcrossThreadCounts) {
  auto run_with = [](std::size_t threads) {
    core::SessionConfig c = wire_session_config("hybrid");
    c.worker_threads = threads;
    return core::Session(std::move(c)).run();
  };
  const core::SessionResult serial = run_with(1);
  const core::SessionResult four = run_with(4);
  core::expect_identical(serial, four);
}

TEST(TransportSession, ExtremeLossConfigsComplete) {
  // No loss configuration may crash or deadlock a session; the worst case
  // degrades to concealment.
  for (const char* policy : {"fec", "nack", "hybrid"}) {
    core::SessionConfig c = wire_session_config(policy);
    c.duration_s = 1.0;
    fault::ChaosConfig chaos;
    chaos.seed = c.seed;
    chaos.duration_s = c.duration_s;
    chaos.user_count = c.user_count;
    chaos.ap_count = c.ap_count;
    chaos.intensity = 1.5;
    chaos.burst_loss_probability = 1.0;
    c.fault_plan = fault::random_plan(chaos);
    const core::SessionResult r = core::Session(std::move(c)).run();
    EXPECT_GT(r.transport.trains, 0u) << policy;
  }
}

TEST(TransportFleet, WireFleetBitIdenticalAcrossParallelism) {
  auto run_with = [](std::size_t parallel) {
    core::FleetConfig fc;
    fc.session = wire_session_config("hybrid");
    fc.session.duration_s = 1.0;
    fc.session.worker_threads = 1;
    fc.sessions = 3;
    fc.parallel_sessions = parallel;
    return core::run_fleet(fc);
  };
  const core::FleetResult serial = run_with(1);
  const core::FleetResult four = run_with(4);
  core::expect_fleet_identical(serial, four);
}

// ------------------------------------------- Gilbert–Elliott statistics

// With per = 0 and burst_loss = 1 a packet is lost exactly when the chain
// sits in the bad state, so the loss sequence *is* the state sequence:
// burst lengths should be geometric with mean 1/burst_exit and the loss
// fraction should match the stationary bad-state probability
// enter / (enter + exit).
TEST(TransportBurstChain, EmpiricalBurstStatisticsMatchTheModel) {
  TrainParams params;
  params.per = 0.0;
  params.burst_loss = 1.0;
  params.seed = 2024;
  params.user = 0;

  constexpr std::size_t kPackets = 400'000;
  const std::vector<bool> lost =
      wire_loss_sequence(params, kPackets);
  ASSERT_EQ(lost.size(), kPackets);

  std::size_t lost_total = 0;
  std::vector<std::size_t> burst_lengths;
  std::size_t run = 0;
  for (const bool l : lost) {
    if (l) {
      ++lost_total;
      ++run;
    } else if (run > 0) {
      burst_lengths.push_back(run);
      run = 0;
    }
  }
  if (run > 0) burst_lengths.push_back(run);

  // Stationary bad fraction: 0.02 / 0.22 = 0.0909...
  const double bad_fraction =
      static_cast<double>(lost_total) / static_cast<double>(kPackets);
  EXPECT_NEAR(bad_fraction, kBurstEnter / (kBurstEnter + kBurstExit), 0.01);

  // Mean burst length 1/exit = 5 (geometric dwell time in the bad state).
  ASSERT_GT(burst_lengths.size(), 1000u);
  double sum = 0.0;
  std::size_t at_least_5 = 0;
  for (const std::size_t len : burst_lengths) {
    sum += static_cast<double>(len);
    if (len >= 5) ++at_least_5;
  }
  const double mean_burst =
      sum / static_cast<double>(burst_lengths.size());
  EXPECT_NEAR(mean_burst, 1.0 / kBurstExit, 0.4);

  // Geometric shape, not just the mean: P(L >= 5) = (1 - exit)^4 = 0.4096.
  const double tail = static_cast<double>(at_least_5) /
                      static_cast<double>(burst_lengths.size());
  EXPECT_NEAR(tail, 0.8 * 0.8 * 0.8 * 0.8, 0.03);
}

TEST(TransportBurstChain, ChainOffMeansNoLossesAtZeroPer) {
  TrainParams params;
  params.per = 0.0;
  params.burst_loss = 0.0;
  params.seed = 7;
  for (const bool l : wire_loss_sequence(params, 10'000))
    EXPECT_FALSE(l);
}

TEST(TransportBurstChain, LossSequenceIsDeterministic) {
  TrainParams params;
  params.per = 0.1;
  params.burst_loss = 0.9;
  params.seed = 99;
  EXPECT_EQ(wire_loss_sequence(params, 5'000),
            wire_loss_sequence(params, 5'000));
}

}  // namespace
}  // namespace volcast::transport
