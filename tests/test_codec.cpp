#include "pointcloud/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "common/fnv.h"
#include "common/rng.h"
#include "pointcloud/video_generator.h"

namespace volcast::vv {
namespace {

using common::fnv1a;

/// `n` points uniform in [-1, 1] x [-1, 1] x [0, 2], each with a uniform
/// random colour.
FrameSoA random_frame(std::size_t n, std::uint64_t seed) {
  volcast::Rng rng(seed);
  FrameSoA frame;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0, 2)};
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    frame.push_back(p, r, g, b);
  }
  return frame;
}

/// Multiset of quantized (position, color) tuples, for order-free
/// comparison after decode.
std::multiset<std::tuple<long, long, long, int, int, int>> quantized_multiset(
    const FrameSoA& frame, double step) {
  std::multiset<std::tuple<long, long, long, int, int, int>> out;
  const std::span<const std::uint8_t> rgb = frame.rgb();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const geo::Vec3 p = frame.position(i);
    out.insert({std::lround(p.x / step), std::lround(p.y / step),
                std::lround(p.z / step), rgb[3 * i], rgb[3 * i + 1],
                rgb[3 * i + 2]});
  }
  return out;
}

TEST(Codec, EmptyCloudRoundTrips) {
  const FrameSoA empty;
  const auto blob = encode(empty);
  EXPECT_EQ(blob.size(), kCodecHeaderBytes);
  const FrameSoA back = decode_soa(blob);
  EXPECT_TRUE(back.empty());
}

TEST(Codec, SinglePointRoundTrips) {
  FrameSoA frame;
  frame.push_back({0.5, -0.25, 1.0}, 10, 20, 30);
  const FrameSoA back = decode_soa(encode(frame));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NEAR(back.xs()[0], 0.5, 1e-9);
  EXPECT_EQ(back.rgb()[0], 10);
  EXPECT_EQ(back.rgb()[1], 20);
  EXPECT_EQ(back.rgb()[2], 30);
}

TEST(Codec, PreservesPointCount) {
  const FrameSoA frame = random_frame(5000, 1);
  EXPECT_EQ(decode_soa(encode(frame)).size(), 5000u);
}

TEST(Codec, PositionErrorBoundedByResolution) {
  const FrameSoA frame = random_frame(2000, 2);
  CodecConfig config;
  config.resolution_m = 0.002;
  const FrameSoA back = decode_soa(encode(frame, config));
  // Match nearest by sorting both multisets in a canonical order is
  // overkill; instead verify every decoded point is within the resolution
  // of the frame bounds and colors survive exactly (delta coding is
  // lossless).
  const auto bounds = frame.bounds().padded(0.002);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_TRUE(bounds.contains(back.position(i)));
  }
}

TEST(Codec, LosslessInQuantizedDomain) {
  // Encoding an already-quantized frame is exactly lossless: decode ->
  // re-encode -> decode must be a fixed point.
  const FrameSoA frame = random_frame(3000, 3);
  const FrameSoA once = decode_soa(encode(frame));
  const auto blob2 = encode(once);
  const FrameSoA twice = decode_soa(blob2);
  ASSERT_EQ(once.size(), twice.size());
  const auto a = quantized_multiset(once, 1e-6);
  const auto b = quantized_multiset(twice, 1e-6);
  EXPECT_EQ(a, b);
}

TEST(Codec, ColorsSurviveExactly) {
  FrameSoA frame;
  volcast::Rng rng(4);
  std::multiset<std::tuple<int, int, int>> colors_in;
  for (int i = 0; i < 1000; ++i) {
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const geo::Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    frame.push_back(p, r, g, b);
    colors_in.insert({r, g, b});
  }
  const FrameSoA back = decode_soa(encode(frame));
  std::multiset<std::tuple<int, int, int>> colors_out;
  const std::span<const std::uint8_t> rgb = back.rgb();
  for (std::size_t i = 0; i < back.size(); ++i)
    colors_out.insert({rgb[3 * i], rgb[3 * i + 1], rgb[3 * i + 2]});
  EXPECT_EQ(colors_in, colors_out);
}

TEST(Codec, NoColorModeReconstructsGrey) {
  FrameSoA frame;
  frame.push_back({0, 0, 0}, 200, 10, 99);
  frame.push_back({1, 1, 1}, 5, 5, 5);
  CodecConfig config;
  config.encode_colors = false;
  const FrameSoA back = decode_soa(encode(frame, config));
  ASSERT_EQ(back.size(), 2u);
  for (const std::uint8_t c : back.rgb()) EXPECT_EQ(c, 128);
}

TEST(Codec, CompressesWellBelowRaw) {
  VideoConfig vc;
  vc.points_per_frame = 50'000;
  vc.frame_count = 2;
  const VideoGenerator gen(vc);
  const FrameSoA frame = gen.frame_soa(0);
  const auto blob = encode(frame);
  EXPECT_LT(blob.size(), frame.raw_size_bytes() / 3);
}

TEST(Codec, RealisticContentHitsPaperBitrateRegime) {
  // The paper's implied budget is ~20-26 bits/point; our figure content
  // must land in that band or Table 1's bitrates drift.
  VideoConfig vc;
  vc.points_per_frame = 100'000;
  vc.frame_count = 2;
  const VideoGenerator gen(vc);
  const FrameSoA frame = gen.frame_soa(0);
  const auto blob = encode(frame);
  const double bits_per_point =
      8.0 * static_cast<double>(blob.size()) /
      static_cast<double>(frame.size());
  EXPECT_GT(bits_per_point, 15.0);
  EXPECT_LT(bits_per_point, 32.0);
}

TEST(Codec, EncodeBytesMatchPinnedHashes) {
  // The encoder's output, hashed while an array-of-structs encoder still
  // had to match it byte for byte: generator frames with and without
  // colour, a random frame and the empty frame. Any change to the bytes
  // (quantizer, Morton order, models, range coder, header) shows here.
  VideoConfig vc;
  vc.points_per_frame = 20'000;
  vc.frame_count = 30;
  vc.seed = 3;
  const VideoGenerator gen(vc);
  CodecConfig no_colors;
  no_colors.encode_colors = false;
  struct Pinned {
    std::size_t frame;
    bool colors;
    std::uint64_t hash;
  };
  for (const Pinned& p : {Pinned{0, true, 0x205f81bcc252c043ULL},
                          Pinned{0, false, 0x38eae7b2a839a2ecULL},
                          Pinned{11, true, 0x80f1136a71e67ad0ULL},
                          Pinned{11, false, 0x742c4209cd9d40adULL},
                          Pinned{29, true, 0xae240436517cf014ULL},
                          Pinned{29, false, 0xf9560a76a000e7e3ULL}}) {
    const FrameSoA frame = gen.frame_soa(p.frame);
    EXPECT_EQ(fnv1a(encode(frame, p.colors ? CodecConfig{} : no_colors)),
              p.hash)
        << "frame " << p.frame << (p.colors ? ", colour" : ", no colour");
  }
  EXPECT_EQ(fnv1a(encode(random_frame(5'000, 1))), 0x09b94010267a291dULL);
  EXPECT_EQ(fnv1a(encode(FrameSoA{})), 0x82a03ec4db1f30b3ULL);
}

TEST(Codec, InvalidQuantBitsThrows) {
  CodecConfig config;
  config.resolution_m = 0.0;
  config.quant_bits = 0;
  EXPECT_THROW((void)encode(FrameSoA{}, config), std::invalid_argument);
  config.quant_bits = 22;
  EXPECT_THROW((void)encode(FrameSoA{}, config), std::invalid_argument);
}

TEST(Codec, MalformedHeaderThrows) {
  std::vector<std::uint8_t> junk(kCodecHeaderBytes, 0xab);
  EXPECT_THROW((void)decode_soa(junk), std::runtime_error);
  EXPECT_THROW((void)decode_soa(std::vector<std::uint8_t>{1, 2, 3}),
               std::runtime_error);
}

TEST(Codec, DegeneratePlanarCloudRoundTrips) {
  // All points in a plane (zero extent along z).
  FrameSoA frame;
  volcast::Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const geo::Vec3 p{rng.uniform(), rng.uniform(), 0.7};
    frame.push_back(p, 1, 2, 3);
  }
  const FrameSoA back = decode_soa(encode(frame));
  ASSERT_EQ(back.size(), 500u);
  for (const double z : back.zs()) EXPECT_NEAR(z, 0.7, 1e-9);
}

TEST(Codec, DuplicatePointsPreserved) {
  FrameSoA frame;
  for (int i = 0; i < 64; ++i) frame.push_back({0.25, 0.25, 0.25}, 9, 9, 9);
  EXPECT_EQ(decode_soa(encode(frame)).size(), 64u);
}

/// `n` points drawn from `distinct` random sites with random colors, so
/// many points share a quantized position and the coder sees long runs of
/// zero code deltas next to busy color streams.
FrameSoA tie_heavy_frame(std::size_t n, std::size_t distinct,
                         std::uint64_t seed) {
  volcast::Rng rng(seed);
  const FrameSoA sites = random_frame(distinct, seed + 1);
  FrameSoA frame;
  for (std::size_t i = 0; i < n; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(distinct) - 1));
    frame.push_back(sites.position(pick),
                    static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                    static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                    static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return frame;
}

TEST(Codec, EncodedSizeEqualsEncodeSizeAtEveryQuantBits) {
  std::uint64_t seed = 5;
  for (unsigned bits = 1; bits <= 21; ++bits) {
    for (bool colors : {true, false}) {
      CodecConfig config;
      config.resolution_m = 0.0;
      config.quant_bits = bits;
      config.encode_colors = colors;
      for (std::size_t n : {0u, 1u, 2u, 57u, 1'500u}) {
        for (std::size_t distinct : {std::size_t{1}, std::size_t{5}, n + 1}) {
          const FrameSoA frame = tie_heavy_frame(n, distinct, seed++);
          ASSERT_EQ(encoded_size(frame, config), encode(frame, config).size())
              << bits << " bits, colors " << colors << ", " << n
              << " points, " << distinct << " sites";
        }
      }
    }
  }
}

TEST(Codec, EncodedSizeOfEmptyAndOnePointFramesAndRealContent) {
  EXPECT_EQ(encoded_size(FrameSoA{}), encode(FrameSoA{}).size());
  EXPECT_EQ(encoded_size(FrameSoA{}), kCodecHeaderBytes);
  FrameSoA one;
  one.push_back({0.1, -0.2, 1.3}, 200, 7, 0);
  EXPECT_EQ(encoded_size(one), encode(one).size());
  VideoConfig vc;
  vc.points_per_frame = 6'000;
  vc.frame_count = 1;
  const FrameSoA frame = VideoGenerator(vc).frame_soa(0);
  for (double resolution : {0.0005, 0.0012, 0.01}) {
    CodecConfig config;
    config.resolution_m = resolution;
    EXPECT_EQ(encoded_size(frame, config), encode(frame, config).size())
        << resolution;
  }
  CodecConfig bad;
  bad.quant_bits = 22;
  bad.resolution_m = 0.0;
  EXPECT_THROW((void)encoded_size(one, bad), std::invalid_argument);
}

/// The quantizer's contract: std::round, clamped to [0, max_q].
std::uint32_t clamped_round(double x, double max_q) {
  return static_cast<std::uint32_t>(std::clamp(std::round(x), 0.0, max_q));
}

TEST(CodecQuantize, ColumnEqualsClampedRoundAtTiesAndBounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (unsigned bits : {1u, 2u, 11u, 21u}) {
    const auto max_q = static_cast<double>((std::uint64_t{1} << bits) - 1);
    std::vector<double> xs{0.0,
                           -0.0,
                           0.49999999999999994,
                           std::nextafter(0.0, 1.0),
                           -std::nextafter(0.0, 1.0),
                           -0.5,
                           -1.0,
                           -1e300,
                           -kInf,
                           max_q,
                           std::nextafter(max_q, 0.0),
                           std::nextafter(max_q, kInf),
                           max_q + 0.5,
                           max_q + 1.0,
                           2.0 * max_q + 7.0,
                           1e300,
                           kInf};
    // Ties k + 0.5 for a ladder of k up to max_q - 1, and one ulp either
    // side of each.
    std::vector<double> ks{max_q - 1.0};
    for (double k = 0.0; k < max_q - 1.0; k = std::floor(k * 1.7) + 1.0)
      ks.push_back(k);
    for (const double k : ks) {
      const double tie = k + 0.5;
      xs.insert(xs.end(), {tie, std::nextafter(tie, 0.0),
                           std::nextafter(tie, kInf), k, k + 1.0});
    }
    // Scale 1: with lo = 0 and len = max_q the quantizer sees x = v.
    std::vector<std::uint32_t> q(xs.size(), 0xdeadbeefu);
    detail::quantize_column(xs, 0.0, max_q, max_q, q.data());
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_EQ(q[i], clamped_round(xs[i], max_q))
          << bits << " bits, x = " << xs[i];
  }
  // A NaN coordinate quantizes to 0, and an empty extent to 0 everywhere.
  const std::vector<double> nan{std::nan("")};
  std::uint32_t out = 7;
  detail::quantize_column(nan, 0.0, 3.0, 3.0, &out);
  EXPECT_EQ(out, 0u);
  const std::vector<double> flat{1.5, 2.5};
  std::vector<std::uint32_t> zeros(2, 9);
  detail::quantize_column(flat, 1.5, 0.0, 2047.0, zeros.data());
  EXPECT_EQ(zeros, (std::vector<std::uint32_t>{0, 0}));
}

TEST(CodecQuantize, ColumnEqualsClampedRoundOnRandomScales) {
  volcast::Rng rng(53);
  for (int trial = 0; trial < 200; ++trial) {
    const auto bits = static_cast<unsigned>(rng.uniform_int(1, 21));
    const auto max_q = static_cast<double>((std::uint64_t{1} << bits) - 1);
    const double lo = rng.uniform(-3.0, 3.0);
    const double len = rng.uniform(1e-6, 4.0);
    std::vector<double> v(257);
    for (double& x : v) x = lo + rng.uniform(-0.1, 1.1) * len;
    std::vector<std::uint32_t> q(v.size());
    detail::quantize_column(v, lo, len, max_q, q.data());
    for (std::size_t i = 0; i < v.size(); ++i)
      ASSERT_EQ(q[i], clamped_round((v[i] - lo) * (max_q / len), max_q))
          << "trial " << trial << ", v = " << v[i];
  }
}

class CodecSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecSizeSweep, RoundTripsAtAnySize) {
  const FrameSoA frame = random_frame(GetParam(), 42 + GetParam());
  const FrameSoA back = decode_soa(encode(frame));
  EXPECT_EQ(back.size(), frame.size());
}

TEST_P(CodecSizeSweep, EncodedSizeEqualsEncodeSize) {
  const FrameSoA frame = random_frame(GetParam(), 42 + GetParam());
  CodecConfig no_colors;
  no_colors.encode_colors = false;
  for (const CodecConfig& config : {CodecConfig{}, no_colors})
    EXPECT_EQ(encoded_size(frame, config), encode(frame, config).size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecSizeSweep,
                         ::testing::Values(1, 2, 3, 10, 100, 1000, 10'000));

class CodecResolutionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CodecResolutionSweep, FinerResolutionCostsMoreBits) {
  const FrameSoA frame = random_frame(5000, 11);
  CodecConfig coarse;
  coarse.resolution_m = GetParam() * 2.0;
  CodecConfig fine;
  fine.resolution_m = GetParam();
  EXPECT_LE(encode(frame, coarse).size(), encode(frame, fine).size());
}

INSTANTIATE_TEST_SUITE_P(Resolutions, CodecResolutionSweep,
                         ::testing::Values(0.0005, 0.001, 0.002, 0.004));

}  // namespace
}  // namespace volcast::vv
