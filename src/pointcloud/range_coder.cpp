#include "pointcloud/range_coder.h"

namespace volcast::vv {

std::vector<std::uint8_t> RangeEncoder::finish() {
  for (int i = 0; i < 5; ++i) shift_low();
  return std::move(output_);
}

RangeDecoder::RangeDecoder(std::span<const std::uint8_t> data) : data_(data) {
  ++pos_;  // skip the initial cache byte emitted by the encoder
  for (int i = 0; i < 4; ++i) code_ = (code_ << 8) | next_byte();
}

std::uint8_t RangeDecoder::next_byte() noexcept {
  return pos_ < data_.size() ? data_[pos_++] : 0;
}

bool RangeDecoder::decode_bit(BitModel& model) {
  const std::uint32_t bound =
      (range_ >> BitModel::kBits) * model.prob_zero();
  bool bit;
  if (code_ < bound) {
    range_ = bound;
    bit = false;
  } else {
    code_ -= bound;
    range_ -= bound;
    bit = true;
  }
  model.update(bit);
  while (range_ < kRangeTopValue) {
    range_ <<= 8;
    code_ = (code_ << 8) | next_byte();
  }
  return bit;
}

std::uint64_t RangeDecoder::decode_raw(unsigned count) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < count; ++i) {
    range_ >>= 1;
    bool bit;
    if (code_ < range_) {
      bit = false;
    } else {
      code_ -= range_;
      bit = true;
    }
    value = (value << 1) | static_cast<std::uint64_t>(bit);
    while (range_ < kRangeTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | next_byte();
    }
  }
  return value;
}

}  // namespace volcast::vv
