#include "pointcloud/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/endian.h"
#include "geometry/morton.h"
#include "pointcloud/range_coder.h"

namespace volcast::vv {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'V', 'P', 'C', '1'};
constexpr unsigned kMaxQuantBits = 21;
constexpr unsigned kMaxDeltaBits = 64;

using common::get_f64;
using common::get_u32;
using common::put_f64;
using common::put_u32;

/// Context models for one non-negative integer stream: capped adaptive
/// unary for the bit length, adaptive models for the two payload bits under
/// the MSB, raw bits for the rest.
struct UIntModels {
  std::array<BitModel, kMaxDeltaBits + 1> length;
  std::array<BitModel, 2> payload;
};

template <typename Coder>
void encode_uint(Coder& enc, UIntModels& m, std::uint64_t value) {
  // Branch-free bit-length: bit_width(v) == the loop-counted MSB position
  // (0 for v == 0, at most 64 == kMaxDeltaBits), without the
  // data-dependent shift loop the old counter paid per value.
  const auto len = static_cast<unsigned>(std::bit_width(value));
  for (unsigned i = 0; i < len; ++i) enc.encode_bit(m.length[i], true);
  if (len < kMaxDeltaBits) enc.encode_bit(m.length[len], false);
  if (len <= 1) return;  // MSB implied by length
  // Bits below the MSB: adaptive for the top two, raw below.
  unsigned remaining = len - 1;
  for (unsigned k = 0; k < 2 && remaining > 0; ++k) {
    --remaining;
    enc.encode_bit(m.payload[k], ((value >> remaining) & 1u) != 0);
  }
  if (remaining > 0)
    enc.encode_raw(value & ((std::uint64_t{1} << remaining) - 1), remaining);
}

std::uint64_t decode_uint(RangeDecoder& dec, UIntModels& m) {
  unsigned len = 0;
  while (len < kMaxDeltaBits && dec.decode_bit(m.length[len])) ++len;
  if (len == 0) return 0;
  std::uint64_t value = 1;  // the implied MSB
  unsigned remaining = len - 1;
  for (unsigned k = 0; k < 2 && remaining > 0; ++k) {
    --remaining;
    value = (value << 1) | static_cast<std::uint64_t>(dec.decode_bit(m.payload[k]));
  }
  if (remaining > 0) value = (value << remaining) | dec.decode_raw(remaining);
  return value;
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

struct ColorModels {
  BitModel zero;
  UIntModels magnitude;
};

struct Keyed {
  std::uint64_t code;
  std::uint32_t index;
};

/// Stable LSD radix sort of `keyed` by the low `key_bits` bits of its
/// codes, one byte digit per pass. The input lists indices in ascending
/// order and every pass is stable, so equal codes keep ascending indices:
/// the result equals a sort by (code, index). Passes whose digit is the
/// same for every key are skipped; each pass shifts by at most 56.
void radix_sort_by_code(std::vector<Keyed>& keyed, unsigned key_bits) {
  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const std::size_t n = keyed.size();
  if (n < 2) return;
  const unsigned passes = (key_bits + kDigitBits - 1) / kDigitBits;
  std::vector<std::array<std::uint32_t, kBuckets>> counts(passes);
  for (auto& c : counts) c.fill(0);
  for (const Keyed& k : keyed)
    for (unsigned p = 0; p < passes; ++p)
      ++counts[p][(k.code >> (kDigitBits * p)) & (kBuckets - 1)];

  std::vector<Keyed> scratch(n);
  for (unsigned p = 0; p < passes; ++p) {
    auto& count = counts[p];
    const unsigned shift = kDigitBits * p;
    if (count[(keyed.front().code >> shift) & (kBuckets - 1)] == n) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) offset += std::exchange(c, offset);
    for (const Keyed& k : keyed)
      scratch[count[(k.code >> shift) & (kBuckets - 1)]++] = k;
    keyed.swap(scratch);
  }
}

/// Validates `config` and returns the per-axis bit depth encode() stores
/// for `frame`.
unsigned quant_bits_for(const FrameSoA& frame, const CodecConfig& config) {
  if (config.quant_bits == 0 || config.quant_bits > kMaxQuantBits)
    throw std::invalid_argument("codec: quant_bits out of range [1, 21]");
  if (!(config.resolution_m > 0.0) || frame.empty())
    return config.quant_bits;
  const geo::Vec3 e = frame.bounds().extent();
  const double span = std::max({e.x, e.y, e.z});
  unsigned bits = 1;
  while (bits < kMaxQuantBits &&
         span / static_cast<double>((std::uint64_t{1} << bits) - 1) >
             config.resolution_m)
    ++bits;
  return bits;
}

/// The payload half of the pipeline, over a non-empty frame: quantize,
/// Morton-sort, then drive `coder` through every point's code delta and
/// color deltas. encode() runs it with a RangeEncoder and encoded_size()
/// with a RangeSizer, so both see the same bit sequence.
template <typename Coder>
void code_points(const FrameSoA& frame, const CodecConfig& config,
                 unsigned quant_bits, Coder& coder) {
  const std::size_t n = frame.size();
  // O(1): FrameSoA maintains its box on push, so deriving the quantization
  // domain no longer rescans the frame.
  const geo::Aabb& bounds = frame.bounds();
  const double max_q =
      static_cast<double>((std::uint64_t{1} << quant_bits) - 1);
  const geo::Vec3 extent = bounds.extent();

  std::vector<Keyed> keyed(n);
  {
    // Scoped so the columns and codes are freed before the sort allocates
    // its scratch, which then does not raise the encoder's peak memory.
    std::vector<std::uint32_t> qx(n);
    std::vector<std::uint32_t> qy(n);
    std::vector<std::uint32_t> qz(n);
    // One vectorized pass per axis column.
    detail::quantize_column(frame.xs(), bounds.lo.x, extent.x, max_q,
                            qx.data());
    detail::quantize_column(frame.ys(), bounds.lo.y, extent.y, max_q,
                            qy.data());
    detail::quantize_column(frame.zs(), bounds.lo.z, extent.z, max_q,
                            qz.data());
    std::vector<std::uint64_t> codes(n);
    geo::morton_encode_batch(qx.data(), qy.data(), qz.data(), codes.data(),
                             n);
    for (std::uint32_t i = 0; i < n; ++i) keyed[i] = {codes[i], i};
  }
  radix_sort_by_code(keyed, 3 * quant_bits);

  UIntModels delta_models;
  std::array<ColorModels, 3> color_models;
  std::uint64_t prev_code = 0;
  std::array<std::uint8_t, 3> prev_color{128, 128, 128};
  const std::span<const std::uint8_t> rgb = frame.rgb();
  for (const Keyed& k : keyed) {
    encode_uint(coder, delta_models, k.code - prev_code);
    prev_code = k.code;
    if (config.encode_colors) {
      const std::uint8_t* c = rgb.data() + 3 * k.index;
      for (int ch = 0; ch < 3; ++ch) {
        const auto chan = static_cast<std::size_t>(ch);
        const std::int64_t diff =
            std::int64_t{c[chan]} - std::int64_t{prev_color[chan]};
        const bool is_zero = diff == 0;
        coder.encode_bit(color_models[chan].zero, !is_zero);
        if (!is_zero)
          encode_uint(coder, color_models[chan].magnitude, zigzag(diff) - 1);
        prev_color[chan] = c[chan];
      }
    }
  }
}

}  // namespace

namespace detail {

void quantize_column(std::span<const double> v, double lo, double len,
                     double max_q, std::uint32_t* q) noexcept {
  const std::size_t count = v.size();
  if (len <= 0.0) {
    std::fill(q, q + count, std::uint32_t{0});
    return;
  }
  const double inv_len = max_q / len;
  for (std::size_t i = 0; i < count; ++i) {
    const double x = std::min(std::max(0.0, (v[i] - lo) * inv_len), max_q);
    const auto t = static_cast<std::int32_t>(x);
    // x - t is x's exact fraction, so 2 (x - t) truncates to 1 exactly
    // when x - t >= 0.5: the round-half-up step with no compare.
    q[i] = static_cast<std::uint32_t>(
        t + static_cast<std::int32_t>((x - t) * 2.0));
  }
}

}  // namespace detail

std::vector<std::uint8_t> encode(const FrameSoA& frame,
                                 const CodecConfig& config) {
  const unsigned quant_bits = quant_bits_for(frame, config);
  const std::size_t n = frame.size();
  std::vector<std::uint8_t> out;
  out.reserve(kCodecHeaderBytes + n * 3);
  common::append_bytes(out, kMagic.data(), kMagic.size());
  put_u32(out, static_cast<std::uint32_t>(n));
  out.push_back(static_cast<std::uint8_t>(quant_bits));
  out.push_back(config.encode_colors ? 1 : 0);
  const geo::Aabb stored =
      n == 0 ? geo::Aabb{{0, 0, 0}, {0, 0, 0}} : frame.bounds();
  put_f64(out, stored.lo.x);
  put_f64(out, stored.lo.y);
  put_f64(out, stored.lo.z);
  put_f64(out, stored.hi.x);
  put_f64(out, stored.hi.y);
  put_f64(out, stored.hi.z);
  if (n == 0) return out;

  RangeEncoder enc;
  code_points(frame, config, quant_bits, enc);
  const std::vector<std::uint8_t> payload = enc.finish();
  common::append_bytes(out, payload.data(), payload.size());
  return out;
}

std::size_t encoded_size(const FrameSoA& frame, const CodecConfig& config) {
  const unsigned quant_bits = quant_bits_for(frame, config);
  if (frame.empty()) return kCodecHeaderBytes;
  RangeSizer sizer;
  code_points(frame, config, quant_bits, sizer);
  return kCodecHeaderBytes + sizer.finish();
}

FrameSoA decode_soa(std::span<const std::uint8_t> data) {
  if (data.size() < kCodecHeaderBytes ||
      !std::equal(kMagic.begin(), kMagic.end(), data.begin()))
    throw std::runtime_error("codec: bad header");
  const std::uint32_t count = get_u32(data, 4);
  const unsigned quant_bits = data[8];
  const bool has_colors = data[9] != 0;
  if (quant_bits == 0 || quant_bits > kMaxQuantBits)
    throw std::runtime_error("codec: corrupt quant_bits");
  // Corruption guard: even at the entropy floor a point costs on the order
  // of a bit, so a count wildly beyond 64 x payload bits is a corrupt
  // header, not a dense cloud. Prevents multi-gigabyte reserve() on a
  // flipped count field.
  if (count > 64 * 8 * (data.size() - kCodecHeaderBytes) + 64)
    throw std::runtime_error("codec: corrupt point count");
  geo::Aabb bounds;
  bounds.lo = {get_f64(data, 10), get_f64(data, 18), get_f64(data, 26)};
  bounds.hi = {get_f64(data, 34), get_f64(data, 42), get_f64(data, 50)};

  if (count == 0) return {};

  // Stage 1 — serial entropy decode: the range coder's adaptive state makes
  // this loop inherently sequential, so it produces only the raw Morton
  // codes and color bytes.
  RangeDecoder dec(data.subspan(kCodecHeaderBytes));
  UIntModels delta_models;
  std::array<ColorModels, 3> color_models;
  std::vector<std::uint64_t> codes(count);
  std::vector<std::uint8_t> rgb(3 * std::size_t{count});
  std::uint64_t code = 0;
  std::array<std::uint8_t, 3> color{128, 128, 128};
  for (std::uint32_t i = 0; i < count; ++i) {
    code += decode_uint(dec, delta_models);
    codes[i] = code;
    if (has_colors) {
      for (int ch = 0; ch < 3; ++ch) {
        const auto chan = static_cast<std::size_t>(ch);
        if (dec.decode_bit(color_models[chan].zero)) {
          const std::int64_t diff =
              unzigzag(decode_uint(dec, color_models[chan].magnitude) + 1);
          color[chan] = static_cast<std::uint8_t>(
              std::int64_t{color[chan]} + diff);
        }
      }
    }
    rgb[3 * i] = color[0];
    rgb[3 * i + 1] = color[1];
    rgb[3 * i + 2] = color[2];
  }

  // Stage 2 — batched geometry reconstruction: compact each Morton axis and
  // dequantize it as one contiguous column (both loops vectorize), instead
  // of interleaving three axes per point inside the serial decode loop.
  const double max_q =
      static_cast<double>((std::uint64_t{1} << quant_bits) - 1);
  const geo::Vec3 extent = bounds.extent();
  auto dequantize_column = [max_q, count](const std::uint32_t* q, double lo,
                                          double len, std::vector<double>& v) {
    v.resize(count);
    if (len <= 0.0) {
      std::fill(v.begin(), v.end(), lo);
      return;
    }
    const double scale = len / max_q;
    for (std::uint32_t i = 0; i < count; ++i)
      v[i] = lo + static_cast<double>(q[i]) * scale;
  };
  std::vector<std::uint32_t> q(count);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  geo::morton_compact_batch(codes.data(), 0, q.data(), count);
  dequantize_column(q.data(), bounds.lo.x, extent.x, x);
  geo::morton_compact_batch(codes.data(), 1, q.data(), count);
  dequantize_column(q.data(), bounds.lo.y, extent.y, y);
  geo::morton_compact_batch(codes.data(), 2, q.data(), count);
  dequantize_column(q.data(), bounds.lo.z, extent.z, z);

  return FrameSoA::from_columns(std::move(x), std::move(y), std::move(z),
                                std::move(rgb));
}

}  // namespace volcast::vv
