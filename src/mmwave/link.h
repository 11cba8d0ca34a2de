// Link budget: AWV + multipath channel -> RSS -> MCS -> rate.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "mmwave/array_gains.h"
#include "mmwave/channel.h"
#include "mmwave/codebook.h"
#include "mmwave/mcs.h"
#include "mmwave/phased_array.h"

namespace volcast::obs {
class Counter;
}  // namespace volcast::obs

namespace volcast::mmwave {

/// Fixed terms of the link budget. Defaults are calibrated so that the
/// default-codebook RSS distribution over the user-study positions matches
/// the paper's Fig. 3b anchor (-68 dBm coverage of ~96.5% for one user).
struct LinkBudget {
  double tx_power_dbm = 7.5;   // conducted power (FCC-friendly EIRP once
                               // the ~20 dBi array gain is added)
  double rx_gain_dbi = 6.0;    // client quasi-omni receive gain
  double implementation_loss_db = 10.0;  // RF chain, pointing, polarization
};

/// Computes the received signal strength at `rx_pos` for transmit AWV `w`:
/// non-coherent power sum over all channel paths of
///   P_tx + G_tx(path direction) - FSPL(length) - extra losses + G_rx.
/// (Non-coherent summing models the wideband 802.11ad waveform, whose
/// symbol bandwidth decorrelates path phases.)
/// `evals`, when non-null, counts link-budget evaluations (telemetry only:
/// an atomic bump that never feeds back into a result). Sessions price
/// every link through LinkTable; this direct trace is the reference the
/// table is tested against.
[[nodiscard]] double rss_dbm(const PhasedArray& tx, const Awv& w,
                             const Channel& channel, const geo::Vec3& rx_pos,
                             std::span<const geo::BodyObstacle> bodies = {},
                             const LinkBudget& budget = {},
                             const BlockageModel& blockage = {},
                             obs::Counter* evals = nullptr);

/// One transmitter's links toward a fixed set of receivers, for pricing
/// many AWVs and many body subsets against the same geometry (one tick of
/// a session: see DESIGN.md, "Tick link state").
///
/// Row r is built on the first use of receiver r. It holds Channel::trace's
/// paths toward receivers[r] with their FSPL and reflection losses, each
/// path's array response (PhasedArray::steering) as one lane of a
/// LaneBlocks, and for each path segment the non-zero loss of every body
/// in `bodies`, in list order. rss() prices every path's array gain in one
/// array_gains pass and then only sums: it adds the same terms in the same
/// order as rss_dbm() over the masked bodies, through the same per-path
/// term function, so the two agree bit for bit (a body whose loss is
/// exactly zero adds nothing to a segment's sum). The response toward the
/// receiver itself, behind steering() and steered(), is computed on the
/// first call to either.
///
/// With a bound `codebook` (the transmitter's stock sectors), a row also
/// caches, on first use, every sector's gain toward its receiver; the
/// sector picks below select over those cached gains with Codebook's own
/// rules, so they equal Codebook::best_beam_toward / best_common_beam.
///
/// `receivers`, `bodies` and `codebook` are referenced, not copied; they
/// must outlive the table. `rows`, when non-null, counts rows built
/// (telemetry only).
class LinkTable {
 public:
  LinkTable(const PhasedArray& tx, const Channel& channel,
            const LinkBudget& budget, const BlockageModel& blockage,
            std::span<const geo::Vec3> receivers,
            std::span<const geo::BodyObstacle> bodies,
            const Codebook* codebook = nullptr,
            obs::Counter* rows = nullptr);

  [[nodiscard]] const PhasedArray& tx() const noexcept { return *tx_; }
  [[nodiscard]] std::span<const geo::Vec3> receivers() const noexcept {
    return receivers_;
  }
  [[nodiscard]] std::span<const geo::BodyObstacle> bodies() const noexcept {
    return bodies_;
  }
  [[nodiscard]] std::size_t body_count() const noexcept {
    return bodies_.size();
  }
  /// Rows built so far, and rss() calls so far (the table's work).
  [[nodiscard]] std::size_t rows_built() const noexcept { return rows_built_; }
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return evaluations_;
  }

  /// The array's response toward receivers[rx] (from the array origin).
  /// Throws std::out_of_range for an unknown receiver (as every
  /// per-receiver call does).
  [[nodiscard]] const Steering& steering(std::size_t rx);

  /// tx.steer_at(receivers[rx]).
  [[nodiscard]] const Awv& steered(std::size_t rx);

  /// The conjugate-steered beam along each non-line-of-sight path toward
  /// receivers[rx], in Channel::trace order: tx.steer(that path's
  /// tx_direction), bit for bit.
  [[nodiscard]] std::vector<Awv> reflection_beams(std::size_t rx);

  /// Every codebook sector's gain toward receivers[rx], in beam order:
  /// codebook.gains(steering(rx)), computed once per row. Throws
  /// std::logic_error when the table has no codebook.
  [[nodiscard]] std::span<const double> sector_gains(std::size_t rx);

  /// codebook.best_beam_toward(tx, receivers[rx]).
  [[nodiscard]] std::size_t best_sector(std::size_t rx);

  /// codebook.best_common_beam(tx, the receivers listed in `rxs`).
  [[nodiscard]] std::size_t best_common_sector(
      std::span<const std::size_t> rxs);

  /// rss_dbm(tx, w, channel, receivers[rx], B, budget, blockage, evals)
  /// where B lists, in order, the bodies k with body_mask[k] != 0.
  /// Throws std::invalid_argument unless body_mask has body_count() entries.
  [[nodiscard]] double rss(const Awv& w, std::size_t rx,
                           std::span<const std::uint8_t> body_mask,
                           obs::Counter* evals = nullptr);

  /// An upper bound on rss(w, rx, body_mask) over every power-normalized
  /// AWV w (sum |w_i|^2 == 1), without a beam. Each path's array gain
  /// |sum_i w_i p_i|^2 g_elem is at most N g_elem, N = element count
  /// (Cauchy-Schwarz with |p_i| = 1), so the bound sums the same row with
  /// the same masked segment losses as rss(), with every path's gain
  /// replaced by N g_elem (1 + 1e-6), and adds 1e-6 dB to the total. The
  /// pad, far above the rounding of log10/pow, keeps the bound from ever
  /// falling below rss() for a beam that meets the bound with equality.
  /// Throws like rss().
  [[nodiscard]] double rss_upper_bound(std::size_t rx,
                                       std::span<const std::uint8_t> body_mask);

 private:
  struct BodyLoss {
    std::size_t body;
    double loss_db;
  };
  struct PathTerm {
    bool line_of_sight = true;
    double fspl_db = 0.0;
    double reflection_loss_db = 0.0;
    std::size_t segments = 0;
    // Segment s owns Row::losses[loss_begin[s], loss_begin[s + 1]).
    std::array<std::size_t, 4> loss_begin{};
  };
  struct Row {
    std::optional<Steering> toward;  // both built on first use
    std::optional<Awv> steered;
    std::vector<PathTerm> paths;
    LaneBlocks responses;               // path p's array response is lane p
    std::vector<double> element_gains;  // and its element gain entry p
    std::vector<BodyLoss> losses;
    std::vector<double> sector_gains;  // empty until first asked for
  };

  const PhasedArray* tx_;
  const Channel* channel_;
  LinkBudget budget_;
  BlockageModel blockage_;
  std::span<const geo::Vec3> receivers_;
  std::span<const geo::BodyObstacle> bodies_;
  const Codebook* codebook_;
  obs::Counter* rows_counter_;
  std::vector<std::optional<Row>> rows_;
  std::size_t rows_built_ = 0;
  std::size_t evaluations_ = 0;
  std::vector<double> path_gains_;  // scratch: one row's per-path gains

  Row& row(std::size_t rx);
  /// The bound codebook; throws std::logic_error when there is none.
  [[nodiscard]] const Codebook& codebook() const;
  /// Throws std::invalid_argument unless body_mask has body_count() entries.
  void check_mask(std::span<const std::uint8_t> body_mask) const;
  /// The link budget over row r's paths and the masked bodies, path p's
  /// transmit gain being path_gains[p]: rss()'s one summation.
  [[nodiscard]] double masked_rss(const Row& r,
                                  std::span<const std::uint8_t> body_mask,
                                  std::span<const double> path_gains) const;
};

/// Convenience: RSS with the best codebook beam for this receiver (the
/// unicast SLS outcome). A reference for tests and benches, like rss_dbm.
[[nodiscard]] double best_beam_rss_dbm(
    const PhasedArray& tx, const Codebook& codebook, const Channel& channel,
    const geo::Vec3& rx_pos, std::span<const geo::BodyObstacle> bodies = {},
    const LinkBudget& budget = {}, const BlockageModel& blockage = {},
    obs::Counter* evals = nullptr);

/// Slow log-normal shadowing as an AR(1) process in dB; gives the RSS
/// time series the jitter a real testbed shows without breaking
/// reproducibility.
class ShadowingProcess {
 public:
  ShadowingProcess(double sigma_db, double coherence_time_s,
                   std::uint64_t seed);

  /// Advances by dt and returns the current shadowing term in dB.
  double step(double dt_s);

  [[nodiscard]] double current_db() const noexcept { return value_db_; }

 private:
  double sigma_db_;
  double coherence_time_s_;
  Rng rng_;
  double value_db_ = 0.0;
};

}  // namespace volcast::mmwave
