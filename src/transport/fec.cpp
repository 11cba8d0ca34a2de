#include "transport/fec.h"

namespace volcast::transport::fec {

namespace {

void xor_into(std::vector<std::uint8_t>& acc,
              const std::vector<std::uint8_t>& src) {
  if (acc.size() < src.size()) acc.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) acc[i] ^= src[i];
}

}  // namespace

std::vector<std::vector<std::uint8_t>> make_parity(
    const std::vector<std::vector<std::uint8_t>>& data, int r) {
  if (r <= 0 || data.empty()) return {};
  std::vector<std::vector<std::uint8_t>> parity(static_cast<std::size_t>(r));
  for (std::size_t i = 0; i < data.size(); ++i)
    xor_into(parity[i % static_cast<std::size_t>(r)], data[i]);
  return parity;
}

int count_recoverable(std::span<const bool> data_arrived,
                      std::span<const bool> parity_arrived) noexcept {
  const std::size_t r = parity_arrived.size();
  int recovered = 0;
  for (std::size_t j = 0; j < r; ++j) {
    int losses = 0;
    for (std::size_t i = j; i < data_arrived.size(); i += r)
      if (!data_arrived[i]) ++losses;
    if (losses == 1 && parity_arrived[j]) ++recovered;
  }
  return recovered;
}

std::vector<std::uint8_t> recover(
    const std::vector<std::vector<std::uint8_t>>& data,
    const std::vector<std::vector<std::uint8_t>>& parity, int lost_index,
    std::size_t original_len) {
  const std::size_t r = parity.size();
  const std::size_t stripe = static_cast<std::size_t>(lost_index) % r;
  std::vector<std::uint8_t> acc = parity[stripe];
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (static_cast<int>(i) == lost_index) continue;
    if (i % r == stripe) xor_into(acc, data[i]);
  }
  acc.resize(original_len, 0);
  return acc;
}

}  // namespace volcast::transport::fec
