#include "mmwave/beam_design.h"

#include <stdexcept>

namespace volcast::mmwave {

namespace {

/// combine_awvs over `count` beams, beam b being beam_at(b).
template <class BeamAt>
void combine_into(std::size_t count, const BeamAt& beam_at,
                  std::span<const double> rss_mw, Awv& out) {
  if (count == 0) throw std::invalid_argument("combine_awvs: no beams");
  if (count != rss_mw.size())
    throw std::invalid_argument("combine_awvs: beams/RSS size mismatch");
  const std::size_t n = beam_at(0).size();

  // Weight_i proportional to 1 / rss_i: for two users this is
  //   w = (D2 w1 + D1 w2) / (D1 + D2)
  // up to the common factor D1*D2, i.e. exactly the paper's rule.
  double weight_sum = 0.0;
  for (double rss : rss_mw) {
    if (rss <= 0.0)
      throw std::invalid_argument("combine_awvs: non-positive RSS");
    weight_sum += 1.0 / rss;
  }

  out.assign(n, Complex{0.0, 0.0});
  for (std::size_t b = 0; b < count; ++b) {
    const Awv& beam = beam_at(b);
    if (beam.size() != n)
      throw std::invalid_argument("combine_awvs: AWV length mismatch");
    const double weight = (1.0 / rss_mw[b]) / weight_sum;
    for (std::size_t i = 0; i < n; ++i) out[i] += weight * beam[i];
  }
  power_normalize(out);
}

}  // namespace

Awv combine_awvs(std::span<const Awv> beams, std::span<const double> rss_mw) {
  Awv combined;
  combine_into(
      beams.size(), [&](std::size_t b) -> const Awv& { return beams[b]; },
      rss_mw, combined);
  return combined;
}

void combine_awvs(std::span<const Awv* const> beams,
                  std::span<const double> rss_mw, Awv& out) {
  combine_into(
      beams.size(), [&](std::size_t b) -> const Awv& { return *beams[b]; },
      rss_mw, out);
}

Awv combine_awvs_equal(std::span<const Awv> beams) {
  if (beams.empty())
    throw std::invalid_argument("combine_awvs_equal: no beams");
  const std::size_t n = beams.front().size();
  Awv combined(n, Complex{0.0, 0.0});
  for (const Awv& beam : beams) {
    if (beam.size() != n)
      throw std::invalid_argument("combine_awvs_equal: AWV length mismatch");
    for (std::size_t i = 0; i < n; ++i) combined[i] += beam[i];
  }
  return power_normalized(std::move(combined));
}

}  // namespace volcast::mmwave
