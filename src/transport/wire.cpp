#include "transport/wire.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "transport/fec.h"

namespace volcast::transport {

namespace {

/// splitmix64 finalizer — the same stateless draw discipline the fault
/// injector uses: hash, don't sequence, so parallel layout cannot change
/// the outcome.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform(std::uint64_t seed, std::size_t user, std::uint32_t seq,
               std::uint64_t salt) noexcept {
  const std::uint64_t h = mix(
      seed ^ salt ^
      mix(static_cast<std::uint64_t>(user) * 0x632be59bd9b4e019ULL ^ seq));
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
}

/// The most packets one tile takes: its arrival flags live on the stack.
constexpr std::size_t kTilePackets = (kTileBytes + kMtuBytes - 1) / kMtuBytes;
static_assert(kTilePackets <= 64, "a tile's arrival flags must stay small");

constexpr std::uint64_t kSaltChain = 0x9e1c'7a2f'55b3'0d41ULL;
constexpr std::uint64_t kSaltLoss = 0x2b0f'48a1'c93d'7e65ULL;

/// One packet on the wire: advances the Gilbert–Elliott chain, draws the
/// loss, burns one sequence number. Returns true when the packet arrived.
bool send_packet(const TrainParams& params, ReceiverState& rx) {
  const std::uint32_t seq = rx.next_seq++;
  if (params.burst_loss > 0.0) {
    const double t = uniform(params.seed, params.user, seq, kSaltChain);
    if (rx.burst_bad) {
      if (t < kBurstExit) rx.burst_bad = false;
    } else {
      if (t < kBurstEnter) rx.burst_bad = true;
    }
  } else {
    rx.burst_bad = false;
  }
  const double p = rx.burst_bad ? std::max(params.burst_loss, params.per)
                                : params.per;
  if (p <= 0.0) return true;
  return uniform(params.seed, params.user, seq, kSaltLoss) >= p;
}

}  // namespace

const char* to_string(TransportPolicy policy) noexcept {
  switch (policy) {
    case TransportPolicy::kGoodput: return "goodput";
    case TransportPolicy::kFec: return "fec";
    case TransportPolicy::kNack: return "nack";
    case TransportPolicy::kHybrid: return "hybrid";
  }
  return "?";
}

void TransportReport::add(const TrainResult& train) noexcept {
  const double prior = static_cast<double>(trains);
  ++trains;
  tiles += train.tiles;
  data_packets += train.data_packets;
  parity_packets += train.parity_packets;
  lost_packets += train.lost_packets;
  retransmitted_packets += train.retransmitted_packets;
  nacks += train.nacks;
  fec_recovered_tiles += train.fec_recovered_tiles;
  nack_recovered_tiles += train.nack_recovered_tiles;
  deadline_missed_tiles += train.failed_tiles;
  residual_loss_mean =
      (residual_loss_mean * prior + train.residual_loss) /
      static_cast<double>(trains);
}

std::vector<bool> wire_loss_sequence(const TrainParams& params,
                                     std::size_t count) {
  ReceiverState rx;
  std::vector<bool> lost(count);
  for (std::size_t i = 0; i < count; ++i)
    lost[i] = !send_packet(params, rx);
  return lost;
}

TrainResult transmit_train(TransportPolicy policy, const TrainParams& params,
                           ReceiverState& rx) {
  TrainResult out;
  if (params.frame_bits <= 0.0) return out;

  const bool use_fec = policy == TransportPolicy::kFec ||
                       policy == TransportPolicy::kHybrid;
  const bool use_nack = policy == TransportPolicy::kNack ||
                        policy == TransportPolicy::kHybrid;
  const int k = kFecGroupData;
  const int r = use_fec ? kFecGroupParity : 0;
  const double header_bits_per_packet =
      static_cast<double>(kHeaderWireSize) * 8.0;
  const int round_budget =
      use_nack ? std::min(kNackRounds,
                          static_cast<int>(params.deadline_ms / kNackRttMs))
               : 0;

  const std::uint64_t frame_bytes = static_cast<std::uint64_t>(
      std::ceil(params.frame_bits / 8.0));
  std::uint64_t remaining = frame_bytes;
  std::uint64_t lost_after_fec_total = 0;

  while (remaining > 0) {
    const std::uint64_t tile_bytes =
        std::min<std::uint64_t>(remaining, kTileBytes);
    remaining -= tile_bytes;
    ++out.tiles;
    const int n = static_cast<int>(
        (tile_bytes + kMtuBytes - 1) / kMtuBytes);

    // First transmission, group by group: data packets then the group's
    // parity, exactly the order the packets occupy the train.
    std::array<bool, kTilePackets> data_arrived{};
    int lost_data = 0;
    int recoverable_losses = 0;
    for (int g = 0; g * k < n; ++g) {
      const int lo = g * k;
      const int hi = std::min(n, lo + k);
      const std::span<bool> group_data(data_arrived.data() + lo,
                                       static_cast<std::size_t>(hi - lo));
      for (bool& arrived : group_data) {
        arrived = send_packet(params, rx);
        ++out.data_packets;
        out.header_bits += header_bits_per_packet;
        if (!arrived) {
          ++out.lost_packets;
          ++lost_data;
        }
      }
      std::array<bool, kFecGroupParity> parity_arrived{};
      const std::span<const bool> group_parity(parity_arrived.data(),
                                               static_cast<std::size_t>(r));
      for (int j = 0; j < r; ++j) {
        const bool ok = send_packet(params, rx);
        ++out.parity_packets;
        out.parity_bits += static_cast<double>(kMtuBytes) * 8.0;
        out.header_bits += header_bits_per_packet;
        parity_arrived[static_cast<std::size_t>(j)] = ok;
        if (!ok) ++out.lost_packets;
      }
      const int fixed = fec::count_recoverable(group_data, group_parity);
      recoverable_losses += fixed;
      // Mark repaired packets as arrived so the NACK pass only chases what
      // the parity could not rebuild. A packet's repair depends only on its
      // own flag and its stripe's loss count, so marking in place is safe.
      if (fixed > 0) {
        std::array<int, kFecGroupParity> stripe_losses{};
        const auto stripes = static_cast<std::size_t>(r);
        for (std::size_t i = 0; i < group_data.size(); ++i)
          if (!group_data[i]) ++stripe_losses[i % stripes];
        for (std::size_t i = 0; i < group_data.size(); ++i) {
          const std::size_t stripe = i % stripes;
          if (!group_data[i] && stripe_losses[stripe] == 1 &&
              group_parity[stripe])
            group_data[i] = true;
        }
      }
    }

    const int missing_after_fec = lost_data - recoverable_losses;
    lost_after_fec_total += static_cast<std::uint64_t>(missing_after_fec);
    if (missing_after_fec == 0) {
      if (lost_data > 0) ++out.fec_recovered_tiles;
      continue;
    }

    // NACK rounds: each round reports the missing packets upstream and the
    // sender retransmits them; retransmissions ride the same lossy wire.
    int missing = missing_after_fec;
    int rounds_used = 0;
    while (missing > 0 && rounds_used < round_budget) {
      ++rounds_used;
      ++out.nacks;
      for (std::size_t i = 0; i < static_cast<std::size_t>(n) && missing > 0;
           ++i) {
        if (data_arrived[i]) continue;
        const bool ok = send_packet(params, rx);
        ++out.retransmitted_packets;
        out.retransmit_bits +=
            static_cast<double>(kMtuBytes) * 8.0 +
            header_bits_per_packet;
        if (ok) {
          data_arrived[i] = true;
          --missing;
        }
      }
    }
    if (rounds_used > 0)
      out.recovery_ms = std::max(
          out.recovery_ms, static_cast<double>(rounds_used) * kNackRttMs);
    if (missing == 0) {
      ++out.nack_recovered_tiles;
    } else {
      ++out.failed_tiles;
    }
  }

  out.residual_loss =
      out.data_packets > 0
          ? static_cast<double>(lost_after_fec_total) /
                static_cast<double>(out.data_packets)
          : 0.0;
  // EWMA toward this train's residual: fast enough to react within a few
  // frames, smooth enough that one unlucky train does not whipsaw the
  // rate adapter.
  constexpr double kAlpha = 0.25;
  rx.residual_loss += kAlpha * (out.residual_loss - rx.residual_loss);
  return out;
}

}  // namespace volcast::transport
