#include "pointcloud/range_coder.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace volcast::vv {
namespace {

TEST(RangeCoder, RoundTripSingleModelBits) {
  RangeEncoder enc;
  BitModel model;
  const std::vector<bool> bits{true, false, true, true, false, false, true};
  for (bool b : bits) enc.encode_bit(model, b);
  const auto data = enc.finish();

  RangeDecoder dec(data);
  BitModel model2;
  for (bool b : bits) EXPECT_EQ(dec.decode_bit(model2), b);
}

TEST(RangeCoder, RoundTripRawBits) {
  RangeEncoder enc;
  enc.encode_raw(0xdeadbeefcafeULL, 48);
  enc.encode_raw(0x5, 3);
  const auto data = enc.finish();

  RangeDecoder dec(data);
  EXPECT_EQ(dec.decode_raw(48), 0xdeadbeefcafeULL);
  EXPECT_EQ(dec.decode_raw(3), 0x5u);
}

TEST(RangeCoder, MixedModelAndRaw) {
  RangeEncoder enc;
  BitModel m;
  enc.encode_bit(m, true);
  enc.encode_raw(123, 7);
  enc.encode_bit(m, false);
  const auto data = enc.finish();

  RangeDecoder dec(data);
  BitModel m2;
  EXPECT_TRUE(dec.decode_bit(m2));
  EXPECT_EQ(dec.decode_raw(7), 123u);
  EXPECT_FALSE(dec.decode_bit(m2));
}

TEST(RangeCoder, LongRandomStreamRoundTrips) {
  volcast::Rng rng(77);
  std::vector<bool> bits;
  for (int i = 0; i < 50000; ++i) bits.push_back(rng.chance(0.2));

  RangeEncoder enc;
  std::vector<BitModel> models(4);
  for (std::size_t i = 0; i < bits.size(); ++i)
    enc.encode_bit(models[i % 4], bits[i]);
  const auto data = enc.finish();

  RangeDecoder dec(data);
  std::vector<BitModel> models2(4);
  for (std::size_t i = 0; i < bits.size(); ++i)
    ASSERT_EQ(dec.decode_bit(models2[i % 4]), bits[i]) << "at bit " << i;
}

TEST(RangeCoder, AdaptiveCompressionBeatsRaw) {
  // Heavily biased bits must compress far below 1 bit each.
  RangeEncoder enc;
  BitModel model;
  constexpr int kN = 10000;
  volcast::Rng rng(3);
  int ones = 0;
  for (int i = 0; i < kN; ++i) {
    const bool bit = rng.chance(0.02);
    ones += bit ? 1 : 0;
    enc.encode_bit(model, bit);
  }
  const auto data = enc.finish();
  // Entropy of p=0.02 is ~0.14 bits; allow generous adaptation overhead.
  EXPECT_LT(data.size() * 8, kN / 2);
  EXPECT_GT(ones, 0);
}

TEST(RangeCoder, CarryPropagationStress) {
  // Alternating near-certain bits after warming the model produces long
  // 0xff runs internally; the decoder must still agree bit-for-bit.
  RangeEncoder enc;
  BitModel hot;
  std::vector<bool> bits;
  for (int i = 0; i < 2000; ++i) bits.push_back(true);
  bits.push_back(false);
  for (int i = 0; i < 2000; ++i) bits.push_back(true);
  for (bool b : bits) enc.encode_bit(hot, b);
  const auto data = enc.finish();

  RangeDecoder dec(data);
  BitModel hot2;
  for (bool b : bits) ASSERT_EQ(dec.decode_bit(hot2), b);
}

TEST(RangeCoder, EmptyStreamFinishes) {
  RangeEncoder enc;
  const auto data = enc.finish();
  EXPECT_GE(data.size(), 1u);  // flush bytes only
}

TEST(RangeCoder, SizerCountsTheEncodersBytes) {
  // Same calls into a RangeEncoder and a RangeSizer: empty streams, carry
  // runs of near-certain bits, mixed model and raw bits of every width.
  volcast::Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    RangeEncoder enc;
    RangeSizer sizer;
    BitModel enc_hot;
    BitModel size_hot;
    BitModel enc_model;
    BitModel size_model;
    const int calls =
        trial == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 3000));
    const double bias = rng.uniform(0.0, 1.0);
    for (int i = 0; i < calls; ++i) {
      const auto kind = rng.uniform_int(0, 2);
      if (kind == 0) {
        const bool bit = rng.chance(bias);
        enc.encode_bit(enc_model, bit);
        sizer.encode_bit(size_model, bit);
      } else if (kind == 1) {
        const bool bit = !rng.chance(0.01);
        enc.encode_bit(enc_hot, bit);
        sizer.encode_bit(size_hot, bit);
      } else {
        const auto width = static_cast<unsigned>(rng.uniform_int(0, 64));
        const std::uint64_t value = rng.next_u64();
        enc.encode_raw(value, width);
        sizer.encode_raw(value, width);
      }
    }
    EXPECT_EQ(sizer.finish(), enc.finish().size()) << "trial " << trial;
  }
}

TEST(BitModel, AdaptsTowardObservedBit) {
  BitModel m;
  const auto before = m.prob_zero();
  for (int i = 0; i < 50; ++i) m.update(true);
  EXPECT_LT(m.prob_zero(), before / 4);
  for (int i = 0; i < 200; ++i) m.update(false);
  EXPECT_GT(m.prob_zero(), before);
}

class RangeCoderBias : public ::testing::TestWithParam<double> {};

TEST_P(RangeCoderBias, RoundTripsAtAnyBias) {
  const double p = GetParam();
  volcast::Rng rng(static_cast<std::uint64_t>(p * 1000) + 1);
  std::vector<bool> bits;
  for (int i = 0; i < 5000; ++i) bits.push_back(rng.chance(p));
  RangeEncoder enc;
  BitModel m;
  for (bool b : bits) enc.encode_bit(m, b);
  const auto data = enc.finish();
  RangeDecoder dec(data);
  BitModel m2;
  for (std::size_t i = 0; i < bits.size(); ++i)
    ASSERT_EQ(dec.decode_bit(m2), bits[i]);
}

INSTANTIATE_TEST_SUITE_P(Biases, RangeCoderBias,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 0.9, 0.99,
                                           1.0));

}  // namespace
}  // namespace volcast::vv
