#include "mmwave/array_gains.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace volcast::mmwave {

namespace {

constexpr std::size_t kBlockStride = 2 * kLanes;  // doubles per element

// Two lanes as one value. GCC vector arithmetic is lane by lane IEEE
// arithmetic; two doubles fit the narrowest vector registers (SSE2, NEON),
// so the kernel vectorizes on every target with no shuffles.
using Pair [[gnu::vector_size(2 * sizeof(double))]] = double;
constexpr std::size_t kPairs = kLanes / 2;
static_assert(kLanes % 2 == 0);

}  // namespace

void LaneBlocks::reset(std::size_t elements) noexcept {
  elements_ = elements;
  lanes_ = 0;
  data_.clear();
}

void LaneBlocks::push_back(std::span<const Complex> values) {
  if (values.size() != elements_)
    throw std::invalid_argument("LaneBlocks: lane length mismatch");
  const PhasorSink lane = push_lane();
  for (std::size_t i = 0; i < elements_; ++i) {
    lane.re[i * lane.stride] = values[i].real();
    lane.im[i * lane.stride] = values[i].imag();
  }
}

PhasorSink LaneBlocks::push_lane() {
  if (lanes_ % kLanes == 0)
    data_.resize(data_.size() + elements_ * kBlockStride);
  double* block = data_.data() + lanes_ / kLanes * elements_ * kBlockStride;
  const std::size_t slot = lanes_ % kLanes;
  ++lanes_;
  return {block + slot, block + kLanes + slot, kBlockStride};
}

void LaneBlocks::lane(std::size_t lane, std::vector<Complex>& out) const {
  if (lane >= lanes_) throw std::out_of_range("LaneBlocks: no such lane");
  const double* block =
      data_.data() + lane / kLanes * elements_ * kBlockStride;
  const std::size_t slot = lane % kLanes;
  out.clear();
  for (std::size_t i = 0; i < elements_; ++i)
    out.emplace_back(block[i * kBlockStride + slot],
                     block[i * kBlockStride + kLanes + slot]);
}

// The batched twin of Steering::gain. Each lane keeps its own accumulator
// (one half of a Pair) and adds the elements in index order, and each
// product is written out the way the compiler expands a std::complex
// product (re = a c - b d, im = a d + b c): the same operations in the
// same order, so the same bits. The expansion only calls __muldc3 when
// both parts come out NaN, which finite, non-overflowing inputs never do.
// No sum is reassociated (no -ffast-math), the kernel stays out of line,
// and this file and phased_array.cpp are compiled without FMA contraction
// (CMakeLists.txt), so the two agree under VOLCAST_NATIVE too.
[[gnu::noinline]] void array_gains(std::span<const Complex> w,
                                   const LaneBlocks& lanes,
                                   std::span<const double> gains,
                                   std::span<double> out) {
  if (out.size() != lanes.lanes() ||
      (gains.size() != 1 && gains.size() != lanes.lanes()))
    throw std::invalid_argument("array_gains: output or gain size mismatch");
  if (w.size() != lanes.elements()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const std::size_t n = w.size();
  const double* block = lanes.data().data();
  for (std::size_t first = 0; first < lanes.lanes();
       first += kLanes, block += n * kBlockStride) {
    Pair re[kPairs] = {};
    Pair im[kPairs] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const Pair wr = {w[i].real(), w[i].real()};
      const Pair wi = {w[i].imag(), w[i].imag()};
      const double* column = block + i * kBlockStride;
      for (std::size_t j = 0; j < kPairs; ++j) {
        Pair vr{};
        Pair vi{};
        std::memcpy(&vr, column + 2 * j, sizeof vr);
        std::memcpy(&vi, column + kLanes + 2 * j, sizeof vi);
        re[j] += wr * vr - wi * vi;
        im[j] += wr * vi + wi * vr;
      }
    }
    const std::size_t count = std::min(kLanes, lanes.lanes() - first);
    for (std::size_t l = 0; l < count; ++l)
      out[first + l] = std::norm(Complex{re[l / 2][l % 2], im[l / 2][l % 2]}) *
                       (gains.size() == 1 ? gains[0] : gains[first + l]);
  }
}

}  // namespace volcast::mmwave
