#include "mmwave/beam_design.h"

#include <stdexcept>

namespace volcast::mmwave {

void combine_awvs(std::span<const Awv* const> beams,
                  std::span<const double> rss_mw, Awv& out) {
  if (beams.empty()) throw std::invalid_argument("combine_awvs: no beams");
  if (beams.size() != rss_mw.size())
    throw std::invalid_argument("combine_awvs: beams/RSS size mismatch");
  const std::size_t n = beams.front()->size();

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
  for (std::size_t b = 0; b < beams.size(); ++b) {
    const Awv& beam = *beams[b];
    if (beam.size() != n)
      throw std::invalid_argument("combine_awvs: AWV length mismatch");
    const double weight = (1.0 / rss_mw[b]) / weight_sum;
    for (std::size_t i = 0; i < n; ++i) out[i] += weight * beam[i];
  }
  power_normalize(out);
}

}  // namespace volcast::mmwave
