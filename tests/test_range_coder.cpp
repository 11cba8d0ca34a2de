#include "pointcloud/range_coder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

/// The renormalizing sizer as a loop: RangeSizer's reference. Copyable,
/// so a test can read finish() after every call.
class LoopSizer {
 public:
  void encode_bit(BitModel& model, bool bit) {
    const std::uint32_t bound =
        (range_ >> BitModel::kBits) * model.prob_zero();
    if (bit) {
      range_ -= bound;
    } else {
      range_ = bound;
    }
    model.update(bit);
    renormalize();
  }
  void encode_raw(unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      range_ >>= 1;
      renormalize();
    }
  }
  [[nodiscard]] std::size_t finish() const { return shifts_ + 5; }

 private:
  void renormalize() {
    while (range_ < kRangeTopValue) {
      range_ <<= 8;
      ++shifts_;
    }
  }
  std::uint32_t range_ = 0xffffffffu;
  std::size_t shifts_ = 0;
};

TEST(RangeSizer, RawRenormEqualsThePerBitLoop) {
  volcast::Rng rng(29);
  for (unsigned width = 25; width <= 32; ++width) {
    const std::uint32_t lowest = 1u << (width - 1);
    const std::uint32_t highest =
        width == 32 ? 0xffffffffu : (1u << width) - 1;
    std::vector<std::uint32_t> ranges{lowest, lowest + 1, highest,
                                      highest - 1, lowest | 0xffu,
                                      lowest | (lowest >> 1)};
    for (int k = 0; k < 6; ++k)
      ranges.push_back(lowest | static_cast<std::uint32_t>(
                                    rng.next_u64() & (lowest - 1)));
    for (const std::uint32_t start : ranges) {
      ASSERT_EQ(std::bit_width(start), static_cast<int>(width));
      for (unsigned count = 0; count <= 64; ++count) {
        std::uint32_t range = start;
        unsigned shifts = 0;
        for (unsigned i = 0; i < count; ++i) {
          range >>= 1;
          while (range < kRangeTopValue) {
            range <<= 8;
            ++shifts;
          }
        }
        const RawRenorm closed = raw_renorm(start, count);
        EXPECT_EQ(closed.range, range) << start << " after " << count;
        EXPECT_EQ(closed.shifts, shifts) << start << " after " << count;
      }
    }
  }
}

TEST(RangeSizer, EqualsLoopRenormalizingReferenceAfterEveryCall) {
  volcast::Rng rng(31);
  for (const double bias : {0.0, 0.001, 0.02, 0.3, 0.5, 0.9, 0.999, 1.0}) {
    RangeSizer sizer;
    LoopSizer reference;
    std::vector<BitModel> models(3);
    std::vector<BitModel> reference_models(3);
    for (int i = 0; i < 100'000; ++i) {
      if (rng.chance(0.1)) {
        const auto count = static_cast<unsigned>(rng.uniform_int(0, 64));
        sizer.encode_raw(rng.next_u64(), count);
        reference.encode_raw(count);
      } else {
        const auto m = static_cast<std::size_t>(i % 3);
        const bool bit = rng.chance(bias);
        sizer.encode_bit(models[m], bit);
        reference.encode_bit(reference_models[m], bit);
      }
      ASSERT_EQ(sizer.finish(), reference.finish())
          << "bias " << bias << ", call " << i;
    }
  }
}

TEST(BitModel, MaskedUpdateEqualsTheBranchyRule) {
  for (std::uint32_t p0 = BitModel::kMinProb; p0 <= BitModel::kMaxProb;
       ++p0) {
    const std::uint32_t after_one = p0 - (p0 >> BitModel::kAdaptShift);
    const std::uint32_t after_zero =
        p0 + ((BitModel::kOne - p0) >> BitModel::kAdaptShift);
    EXPECT_EQ(BitModel::next_prob(p0, true), after_one) << p0;
    EXPECT_EQ(BitModel::next_prob(p0, false), after_zero) << p0;
    for (const std::uint32_t next : {after_one, after_zero}) {
      EXPECT_GE(next, BitModel::kMinProb) << p0;
      EXPECT_LE(next, BitModel::kMaxProb) << p0;
    }
  }
  EXPECT_EQ(BitModel::kMinProb, 31u);
  EXPECT_EQ(BitModel::kMaxProb, 4065u);
  // The ends are fixed points.
  EXPECT_EQ(BitModel::next_prob(BitModel::kMinProb, true),
            BitModel::kMinProb);
  EXPECT_EQ(BitModel::next_prob(BitModel::kMaxProb, false),
            BitModel::kMaxProb);
}

TEST(BitModel, ProbabilityStaysInRangeOnLongStreams) {
  volcast::Rng rng(37);
  std::uint32_t lowest = BitModel::kOne;
  std::uint32_t highest = 0;
  for (const double bias : {0.0, 0.001, 0.05, 0.5, 0.95, 0.999, 1.0}) {
    BitModel model;
    for (int i = 0; i < 200'000; ++i) {
      model.update(rng.chance(bias));
      ASSERT_GE(model.prob_zero(), BitModel::kMinProb) << bias;
      ASSERT_LE(model.prob_zero(), BitModel::kMaxProb) << bias;
      lowest = std::min(lowest, model.prob_zero());
      highest = std::max(highest, model.prob_zero());
    }
  }
  // Runs of ones and of zeros drive it to both ends.
  EXPECT_EQ(lowest, BitModel::kMinProb);
  EXPECT_EQ(highest, BitModel::kMaxProb);
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
