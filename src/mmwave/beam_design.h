// Customized multi-lobe beam synthesis (paper Section 4.2).
//
// The paper's rule for a two-user multicast beam combines the per-user
// steering AWVs weighted by the *other* user's RSS:
//     w = (Delta_2 * w_1 + Delta_1 * w_2) / (Delta_1 + Delta_2)
// so the weaker user receives the larger share of the transmit power, and
// the total power constraint is restored by re-normalizing the combined
// AWV. Only per-user RSS is needed — no CSI — which is what makes the
// scheme deployable on COTS devices (paper Section 4.2).
//
// We generalize to k users with weights proportional to the inverse of each
// user's linear RSS (reduces exactly to the paper's rule at k = 2).
#pragma once

#include <span>

#include "mmwave/phased_array.h"

namespace volcast::mmwave {

/// Combines per-user AWVs into one multi-lobe AWV using the paper's
/// RSS-weighted rule and writes it, power-normalized, into `out` (reusing
/// its storage). `rss_mw` are linear received powers (milliwatts) measured
/// per user with its individual beam. Throws std::invalid_argument on size
/// mismatch, empty input, or a non-positive RSS.
///
/// The equal-weight ablation baseline (no RSS balancing term) is this with
/// equal RSS: on two beams every weight is exactly 1/2, so the result is
/// the power-normalized plain sum bit for bit.
void combine_awvs(std::span<const Awv* const> beams,
                  std::span<const double> rss_mw, Awv& out);

/// Beam-probing verdict (paper Section 5: multi-lobe beams can interfere
/// via reflections and must be probed before use).
struct BeamProbe {
  double min_user_rss_dbm = 0.0;    // worst group member under the beam
  double spill_rss_dbm = -200.0;    // strongest RSS leaked to a non-member
  bool acceptable = true;           // min-user improved and spill bounded
};

}  // namespace volcast::mmwave
