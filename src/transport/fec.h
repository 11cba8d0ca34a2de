// Striped XOR forward error correction over a packet train.
//
// A tile's data packets are split into FEC groups of `k` data packets
// protected by `r` parity packets. Parity `j` is the XOR of the data
// packets whose in-group index satisfies `i % r == j` (a "stripe"), so the
// group survives up to `r` losses provided no stripe loses more than one
// data packet and the stripe's parity arrived. This is the classic
// interleaved-XOR construction used by live-video multicast systems: it
// turns short loss bursts (which land in distinct stripes) into fully
// recoverable events at a fixed `r/k` overhead.
//
// Two layers of API:
//  - `count_recoverable()` answers the *erasure pattern* question from
//    arrival flags alone. This is what the simulated wire uses: the sim
//    models each packet as delivered or lost and never builds payloads.
//  - `make_parity()` / `recover()` operate on real byte payloads. They are
//    the reference the erasure counter is tested against: a lost data
//    packet counts as recoverable exactly when `recover()` rebuilds it
//    byte for byte from `make_parity()` (tests/test_transport.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace volcast::transport::fec {

/// Builds the `r` parity payloads for a group of `k` data payloads.
/// Shorter data packets are zero-padded to the longest stripe member, so
/// parity `j` has the length of the longest packet in stripe `j`.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> make_parity(
    const std::vector<std::vector<std::uint8_t>>& data, int r);

/// Given per-packet arrival flags (`data_arrived.size() == k`,
/// `parity_arrived.size() == r`), returns the number of lost data packets
/// that the parity can reconstruct under the stripe rule (each stripe
/// repairs at most one loss, and only when its parity arrived). Lost
/// packets in over-subscribed or parity-less stripes are not counted.
/// Allocates nothing.
[[nodiscard]] int count_recoverable(
    std::span<const bool> data_arrived,
    std::span<const bool> parity_arrived) noexcept;

/// Reconstructs the single lost data packet of stripe `lost_index % r` by
/// XOR-ing the stripe's parity with its surviving data packets. `data`
/// holds the group's packets with the lost one empty at `lost_index`;
/// `original_len` restores the exact pre-padding length. Returns the
/// recovered payload.
[[nodiscard]] std::vector<std::uint8_t> recover(
    const std::vector<std::vector<std::uint8_t>>& data,
    const std::vector<std::vector<std::uint8_t>>& parity, int lost_index,
    std::size_t original_len);

}  // namespace volcast::transport::fec
