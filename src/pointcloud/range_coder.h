// Adaptive binary range coder (carry-less, 32-bit, byte renormalization) —
// the entropy-coding backend of the point-cloud codec. This plays the role
// Draco's entropy stage plays in the paper's pipeline: it is what brings the
// per-point cost from ~57 raw quantized bits down to the ~20-25 bits/point
// the paper's 235-364 Mbps bitrates imply.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace volcast::vv {

/// Adaptive probability model for a single binary context.
/// 12-bit probability, shift-based update (classic LZMA-style model).
class BitModel {
 public:
  static constexpr std::uint32_t kBits = 12;
  static constexpr std::uint32_t kOne = 1u << kBits;
  static constexpr std::uint32_t kAdaptShift = 5;

  [[nodiscard]] std::uint32_t prob_zero() const noexcept { return p0_; }

  void update(bool bit) noexcept { p0_ = next_prob(p0_, bit); }

  /// The update rule: a one moves p0 down by p0 >> 5, a zero moves it up
  /// by (kOne - p0) >> 5, both selected by a mask instead of a branch
  /// (coded bits are unpredictable). From the initial kOne / 2, p0 stays
  /// in [kMinProb, kMaxProb]: the step is 0 exactly at the two ends.
  [[nodiscard]] static constexpr std::uint32_t next_prob(std::uint32_t p0,
                                                         bool bit) noexcept {
    const std::uint32_t one = 0u - static_cast<std::uint32_t>(bit);
    return p0 - ((p0 >> kAdaptShift) & one) +
           (((kOne - p0) >> kAdaptShift) & ~one);
  }
  static constexpr std::uint32_t kMinProb = (1u << kAdaptShift) - 1;
  static constexpr std::uint32_t kMaxProb = kOne - kMinProb;

 private:
  std::uint32_t p0_ = kOne / 2;
};

/// Renormalization threshold shared by the encoder and the decoder.
inline constexpr std::uint32_t kRangeTopValue = 1u << 24;

/// Encodes a bit stream into bytes using per-call BitModel contexts. The
/// per-bit path is inline: every adaptive bit of the codecs goes through
/// encode_bit, so an out-of-line call per bit would dominate a cell encode.
class RangeEncoder {
 public:
  void encode_bit(BitModel& model, bool bit) {
    const std::uint32_t bound =
        (range_ >> BitModel::kBits) * model.prob_zero();
    if (!bit) {
      range_ = bound;
    } else {
      low_ += bound;
      range_ -= bound;
    }
    model.update(bit);
    while (range_ < kRangeTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }

  /// Encodes `count` raw (equiprobable) low bits of `value`, MSB first.
  void encode_raw(std::uint64_t value, unsigned count) {
    for (unsigned i = count; i-- > 0;) {
      range_ >>= 1;
      // Branch-free form of `if (bit) low_ += range_`: raw bits are
      // unpredictable, so a branch here mispredicts half the time.
      const auto bit = static_cast<std::uint32_t>((value >> i) & 1u);
      low_ += range_ & (0u - bit);
      while (range_ < kRangeTopValue) {
        range_ <<= 8;
        shift_low();
      }
    }
  }

  /// Flushes the coder state; must be called exactly once, after which the
  /// encoder is finished.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return output_.size();
  }

 private:
  void shift_low() {
    if (low_ < 0xff000000ULL || low_ > 0xffffffffULL) {
      // Carry resolved: flush the cached byte plus any 0xff run.
      const auto carry = static_cast<std::uint8_t>(low_ >> 32);
      while (cache_size_ != 0) {
        output_.push_back(static_cast<std::uint8_t>(cache_ + carry));
        cache_ = 0xff;
        --cache_size_;
      }
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
      cache_size_ = 0;
    }
    ++cache_size_;
    low_ = (low_ << 8) & 0xffffffffULL;
  }

  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xffffffffu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;  // first shift emits the initial cache
  std::vector<std::uint8_t> output_;
};

/// The range after `count` raw bits are coded from a renormalized `range`
/// (at least kRangeTopValue), and how many byte shifts that takes: the
/// per-bit loop (halve, then shift by 8 while below kRangeTopValue) in
/// closed form. With w = bit_width(range) in [25, 32], the first shift
/// comes after w - 24 halvings and leaves a 32-bit range whose low byte is
/// zero; from there every 8 halvings shift once more and restore it.
struct RawRenorm {
  std::uint32_t range;
  unsigned shifts;
};
[[nodiscard]] constexpr RawRenorm raw_renorm(std::uint32_t range,
                                             unsigned count) noexcept {
  const auto first = static_cast<unsigned>(std::bit_width(range)) - 24;
  if (count < first) return {range >> count, 0};
  const unsigned rest = count - first;
  return {((range >> first) << 8) >> (rest % 8), 1 + rest / 8};
}

/// RangeEncoder's size-only twin: the same calls, no bytes. Only range_
/// decides when the encoder renormalizes, so the sizer keeps range_ and
/// counts shift_low() calls. Each call emits exactly one byte in the end
/// (a byte is cached, possibly behind a run of 0xff bytes, until a carry
/// resolves it), and finish() adds five calls whose last always flushes,
/// so finish() returns RangeEncoder::finish().size().
///
/// One shift always renormalizes an adaptive bit: p0 stays in
/// [kMinProb, kMaxProb], so from a range r >= 2^24 either branch leaves at
/// least (r >> 12) * 31 >= 2^16.9, and one 8-bit shift restores
/// r >= 2^24. Raw bits go through raw_renorm().
class RangeSizer {
 public:
  void encode_bit(BitModel& model, bool bit) {
    const std::uint32_t bound =
        (range_ >> BitModel::kBits) * model.prob_zero();
    const std::uint32_t r = bit ? range_ - bound : bound;
    model.update(bit);
    const bool shift = r < kRangeTopValue;
    range_ = shift ? r << 8 : r;
    shifts_ += shift;
  }

  void encode_raw(std::uint64_t /*value*/, unsigned count) {
    const RawRenorm next = raw_renorm(range_, count);
    range_ = next.range;
    shifts_ += next.shifts;
  }

  [[nodiscard]] std::size_t finish() const noexcept { return shifts_ + 5; }

 private:
  std::uint32_t range_ = 0xffffffffu;
  std::size_t shifts_ = 0;
};

/// Decodes a byte stream produced by RangeEncoder. The caller must use the
/// exact same sequence of models/raw widths as the encoder.
class RangeDecoder {
 public:
  explicit RangeDecoder(std::span<const std::uint8_t> data);

  [[nodiscard]] bool decode_bit(BitModel& model);
  [[nodiscard]] std::uint64_t decode_raw(unsigned count);

 private:
  std::uint8_t next_byte() noexcept;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint32_t range_ = 0xffffffffu;
  std::uint32_t code_ = 0;
};

}  // namespace volcast::vv
