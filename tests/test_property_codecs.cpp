// Property-based round-trip tests for the compression stack (ISSUE 3):
// seeded randomized point clouds across extents, densities and degenerate
// shapes through `codec` and `range_coder`. Each property
// is a sweep over seeds, so failures reproduce exactly; ctest runs these
// under the `property` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "pointcloud/codec.h"
#include "pointcloud/range_coder.h"

namespace volcast::vv {
namespace {

/// Random cloud with a seed-dependent shape: extent spans sub-millimetre
/// figurines to warehouse scale, density from sparse to clumped, plus the
/// degenerate axes (planes, lines, a single repeated position).
FrameSoA random_cloud(std::uint64_t seed) {
  volcast::Rng rng(seed);
  const double extent = std::pow(10.0, rng.uniform(-2.0, 2.0));
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 1500));
  const int shape = static_cast<int>(rng.uniform_int(0, 3));
  FrameSoA cloud;
  for (std::size_t i = 0; i < n; ++i) {
    geo::Vec3 p{rng.uniform(-extent, extent), rng.uniform(-extent, extent),
                rng.uniform(0.0, extent)};
    if (shape == 1) p.z = 0.25 * extent;              // plane
    if (shape == 2) p.y = p.z = 0.0;                  // line
    if (shape == 3) p = {extent, -extent, extent};    // all duplicates
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    cloud.push_back(p, r, g, b);
  }
  return cloud;
}

std::multiset<std::tuple<long, long, long, int, int, int>> quantized_multiset(
    const FrameSoA& cloud, double step) {
  std::multiset<std::tuple<long, long, long, int, int, int>> out;
  const std::span<const std::uint8_t> rgb = cloud.rgb();
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const geo::Vec3 p = cloud.position(i);
    out.insert({std::lround(p.x / step), std::lround(p.y / step),
                std::lround(p.z / step), rgb[3 * i], rgb[3 * i + 1],
                rgb[3 * i + 2]});
  }
  return out;
}

/// Multiset of a cloud's (r, g, b) colors.
std::multiset<std::tuple<int, int, int>> color_multiset(
    const FrameSoA& cloud) {
  std::multiset<std::tuple<int, int, int>> out;
  const std::span<const std::uint8_t> rgb = cloud.rgb();
  for (std::size_t i = 0; i < cloud.size(); ++i)
    out.insert({rgb[3 * i], rgb[3 * i + 1], rgb[3 * i + 2]});
  return out;
}

TEST(PropertyCodec, RoundTripPreservesCountColorsAndBounds) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const FrameSoA cloud = random_cloud(seed);
    const auto blob = encode(cloud);
    const FrameSoA back = decode_soa(blob);
    ASSERT_EQ(back.size(), cloud.size()) << "seed " << seed;
    if (cloud.empty()) continue;
    // Colors are delta-coded losslessly; the multiset must survive.
    EXPECT_EQ(color_multiset(cloud), color_multiset(back)) << "seed " << seed;
    // Positions stay inside the (slightly padded) source bounds.
    const auto bounds = cloud.bounds().padded(0.01);
    for (std::size_t i = 0; i < back.size(); ++i)
      ASSERT_TRUE(bounds.contains(back.position(i))) << "seed " << seed;
  }
}

TEST(PropertyCodec, DecodeEncodeIsAFixedPoint) {
  // Once quantized, the codec is exactly lossless: decode -> encode ->
  // decode reproduces the identical quantized multiset.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const FrameSoA once = decode_soa(encode(random_cloud(seed)));
    const FrameSoA twice = decode_soa(encode(once));
    ASSERT_EQ(once.size(), twice.size()) << "seed " << seed;
    EXPECT_EQ(quantized_multiset(once, 1e-7), quantized_multiset(twice, 1e-7))
        << "seed " << seed;
  }
}

TEST(PropertyCodec, TruncationNeverCrashesAndHeaderCutsThrow) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto blob = encode(random_cloud(seed));
    // Cutting into the fixed header must be rejected outright.
    for (std::size_t keep = 0; keep < std::min(blob.size(), kCodecHeaderBytes);
         keep += 5) {
      const std::vector<std::uint8_t> cut(
          blob.begin(), blob.begin() + static_cast<long>(keep));
      EXPECT_THROW((void)decode_soa(cut), std::runtime_error)
          << "seed " << seed;
    }
    // Cutting the payload must throw or return bounded garbage.
    for (std::size_t keep = kCodecHeaderBytes; keep < blob.size();
         keep += 31) {
      const std::vector<std::uint8_t> cut(
          blob.begin(), blob.begin() + static_cast<long>(keep));
      try {
        const FrameSoA cloud = decode_soa(cut);
        EXPECT_LE(cloud.size(), 64u * 8u * (cut.size() + 8) + 64u);
      } catch (const std::runtime_error&) {
      }
    }
  }
}

TEST(PropertyRangeCoder, RandomBitStreamsRoundTripExactly) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    volcast::Rng rng(seed);
    const std::size_t bits = static_cast<std::size_t>(
        rng.uniform_int(0, 3000));
    // A handful of adaptive contexts plus interleaved raw fields — the
    // exact usage pattern of the codecs.
    std::vector<bool> sequence(bits);
    std::vector<std::size_t> context(bits);
    const double bias = rng.uniform(0.05, 0.95);
    for (std::size_t i = 0; i < bits; ++i) {
      sequence[i] = rng.uniform() < bias;
      context[i] = static_cast<std::size_t>(rng.uniform_int(0, 7));
    }
    const std::uint64_t raw_value = rng.next_u64() & 0xffffffffull;

    RangeEncoder encoder;
    std::vector<BitModel> encode_models(8);
    for (std::size_t i = 0; i < bits; ++i)
      encoder.encode_bit(encode_models[context[i]], sequence[i]);
    encoder.encode_raw(raw_value, 32);
    const auto blob = encoder.finish();

    RangeDecoder decoder(blob);
    std::vector<BitModel> decode_models(8);
    for (std::size_t i = 0; i < bits; ++i)
      ASSERT_EQ(decoder.decode_bit(decode_models[context[i]]), sequence[i])
          << "seed " << seed << " bit " << i;
    EXPECT_EQ(decoder.decode_raw(32), raw_value) << "seed " << seed;
  }
}

TEST(PropertyRangeCoder, SkewedModelsCompressBelowOneBitPerSymbol) {
  // Sanity on the entropy stage itself: a heavily biased source must cost
  // well under 1 bit/symbol, otherwise the codec's rate story is broken.
  volcast::Rng rng(7);
  RangeEncoder encoder;
  BitModel model;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) encoder.encode_bit(model, rng.uniform() < 0.02);
  const auto blob = encoder.finish();
  EXPECT_LT(static_cast<double>(blob.size()) * 8.0,
            0.35 * static_cast<double>(n));
}

}  // namespace
}  // namespace volcast::vv
