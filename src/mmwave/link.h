// Link budget: AWV + multipath channel -> RSS -> MCS -> rate.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
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
/// the non-coherent power sum over all channel paths, in mW, of
///   max(G_tx(path direction), 1e-12) * K_p,
///   K_p = 10^((P_tx - FSPL(length) - extra losses + G_rx - impl. loss) / 10),
/// K_p being the path's budget at unit transmit gain, turned to dBm once
/// (-200 dBm for an empty sum). (Non-coherent summing models the wideband
/// 802.11ad waveform, whose symbol bandwidth decorrelates path phases.)
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

/// Telemetry counters a LinkTable bumps (each may be null; telemetry only,
/// never read back into a result).
struct LinkCounters {
  obs::Counter* rows = nullptr;      // rows built
  obs::Counter* reused = nullptr;    // prices answered from a row's memo
  obs::Counter* screened = nullptr;  // rss_above() decided without rss()
};

/// One transmitter's links toward a fixed set of receivers, for pricing
/// many AWVs and many body subsets against the same geometry (one tick of
/// a session: see DESIGN.md, "Tick link state").
///
/// Row r is built on the first use of receiver r. It holds Channel::trace's
/// paths toward receivers[r] with their FSPL and reflection losses, each
/// path's array response (PhasedArray::response) written as one lane of a
/// LaneBlocks, and for each path segment the non-zero loss of every body
/// in `bodies`, in list order; SegmentReach skips the bodies whose loss is
/// provably zero. rss() prices every path's array gain in one array_gains
/// pass and then only sums g_p K_p, with each path's K_p computed once per
/// row and visible-body set (path_budgets()): it adds the same terms in the
/// same order as rss_dbm() over the masked bodies, through the same
/// per-path term function, so the two agree bit for bit (a body whose loss
/// is exactly zero adds nothing to a segment's sum). The response toward
/// the receiver itself, behind steering() and steered(), is computed on
/// the first call to either, or copied from the line-of-sight lane when its
/// array-frame direction is that lane's bit for bit.
///
/// rss() depends on the body mask only through the bodies in the row's
/// loss list, its "visible" bodies. sector_rss(), steered_rss() and
/// named_rss() name their beam by identity, never by its weights, so a row
/// remembers their prices per (beam name, visible-body set) and answers a
/// repeat from that memo: the same double rss() would return, since it is
/// the double rss() returned.
///
/// With a bound `codebook` (the transmitter's stock sectors), a row also
/// caches, on first use, every sector's gain toward its receiver; the
/// sector picks below select over those cached gains with Codebook's own
/// rules, so they equal Codebook::best_beam_toward / best_common_beam.
///
/// `receivers`, `bodies` and `codebook` are referenced, not copied; they
/// must outlive the table, or the table's next rebind().
///
/// rebind() points the table at new receivers and bodies and leaves it
/// equal to a fresh table over them (no row built, no evaluation, no
/// beam named), but every row keeps the storage of its vectors and lanes:
/// a table rebound each tick stops allocating once its rows have grown.
/// Spans and references a table hands out are valid until its next
/// rebind().
class LinkTable {
 public:
  LinkTable(const PhasedArray& tx, const Channel& channel,
            const LinkBudget& budget, const BlockageModel& blockage,
            std::span<const geo::Vec3> receivers,
            std::span<const geo::BodyObstacle> bodies,
            const Codebook* codebook = nullptr, LinkCounters counters = {});

  /// Makes this table equal to a fresh one over `receivers` and `bodies`
  /// (same array, channel, budget, blockage, codebook and counters),
  /// keeping its rows' storage.
  void rebind(std::span<const geo::Vec3> receivers,
              std::span<const geo::BodyObstacle> bodies);

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
  /// Rows built so far, and exact link-budget sums so far (every rss(),
  /// a memo miss included, and every rss_above() decided in dBm): the
  /// table's work. A reused price or a screened threshold test is not
  /// counted.
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
  /// tx_direction), bit for bit. The beams live in table storage that the
  /// next reflection_beams() call overwrites.
  [[nodiscard]] std::span<const Awv> reflection_beams(std::size_t rx);

  /// Every codebook sector's gain toward receivers[rx], in beam order:
  /// what codebook.gains(steering(rx), out) writes, computed once per row. Throws
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

  /// rss(codebook sector `sector`, rx, body_mask, evals), reused from the
  /// row's memo when this sector was priced before under the same visible
  /// bodies (`evals` counts exact sums only). Throws std::logic_error
  /// without a codebook, and like rss() and Codebook::beam otherwise.
  [[nodiscard]] double sector_rss(std::size_t sector, std::size_t rx,
                                  std::span<const std::uint8_t> body_mask,
                                  obs::Counter* evals = nullptr);

  /// rss(steered(rx), rx, body_mask, evals), reused like sector_rss().
  [[nodiscard]] double steered_rss(std::size_t rx,
                                   std::span<const std::uint8_t> body_mask,
                                   obs::Counter* evals = nullptr);

  /// A fresh name for a beam the caller synthesized, for named_rss().
  [[nodiscard]] std::size_t name_beam() noexcept;

  /// rss(w, rx, body_mask, evals), reused like sector_rss() per (`name`,
  /// visible-body set). `name` is either a sector index, `w` being that
  /// sector's beam (then this is sector_rss()), or came from this table's
  /// name_beam(), every call with it passing the same `w`.
  [[nodiscard]] double named_rss(std::size_t name, const Awv& w,
                                 std::size_t rx,
                                 std::span<const std::uint8_t> body_mask,
                                 obs::Counter* evals = nullptr);

  /// rss(w, rx, body_mask, evals) > threshold_dbm, for callers that only
  /// compare. rss() is S turned to dBm, S being the sum over paths of
  /// max(g_p, 1e-12) * K_p (g_p the path's array gain, K_p its budget at
  /// unit gain, cached per row and visible-body set), so the test is S > T
  /// in mW, T the threshold's power. Two screens decide it, each with T
  /// padded by a relative 1e-9 on both sides:
  ///  - first, without the gains, below when the bound sum over paths of
  ///    (|w|^2 N g_elem,p + 1e-12) K_p, padded by 1e-6 (rss_upper_bound's
  ///    Cauchy-Schwarz bound, scaled by the beam's power |w|^2), is below;
  ///  - then S itself from one array_gains pass, the sum rss() takes.
  /// A sum inside the pad is decided as rss() decides it, by turning that
  /// sum to dBm (no second gain pass); a threshold below the -200 dBm floor
  /// or NaN, a threshold whose power is not finite, or a row with no
  /// visible-body key goes to rss(). The pad is far above the rounding of
  /// the dBm/mW conversions, so outside it S > T and rss() > threshold_dbm
  /// agree. `evals` counts the decisions taken in dBm. Throws like rss().
  [[nodiscard]] bool rss_above(const Awv& w, std::size_t rx,
                               std::span<const std::uint8_t> body_mask,
                               double threshold_dbm,
                               obs::Counter* evals = nullptr);

  /// An upper bound on rss(w, rx, body_mask) over every power-normalized
  /// AWV w (sum |w_i|^2 == 1), without a beam. Each path's array gain
  /// |sum_i w_i p_i|^2 g_elem is at most N g_elem, N = element count
  /// (Cauchy-Schwarz with |p_i| = 1), so the bound sums the same row with
  /// the same masked segment losses as rss(), with every path's gain
  /// replaced by N g_elem (1 + 1e-6), and adds 1e-6 dB to the total. The
  /// pad, far above the rounding of the gains and the dBm conversion, keeps
  /// the bound from ever falling below rss() for a beam that meets the
  /// bound with equality.
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
  /// One memoized price: the beam named `beam` (a sector index,
  /// kSteeredBeam, or a name_beam() name) under the visible-body set
  /// `visible`.
  struct Price {
    std::size_t beam;
    std::uint64_t visible;
    double rss_dbm;
  };
  /// One visible-body set's per-path K_p, at Row::budgets_mw[first ..],
  /// with the sums rss_above()'s beam-free screen needs: sum of
  /// N g_elem,p K_p and sum of K_p.
  struct PathBudgets {
    std::uint64_t visible;
    std::size_t first;
    double full_gain_mw;
    double unit_mw;
  };
  /// A row's vectors are cleared, never freed, when it is rebuilt.
  struct Row {
    bool built = false;
    bool has_toward = false;  // toward and steered: built on first use
    bool has_steered = false;
    Steering toward;
    Awv steered;
    std::vector<PathTerm> paths;
    LaneBlocks responses;               // path p's array response is lane p
    std::vector<double> element_gains;  // and its element gain entry p
    geo::Vec3 los_local{};  // the line-of-sight path's array-frame direction
    std::vector<BodyLoss> losses;
    // The distinct bodies of `losses`, ascending: bit j of a visible-body
    // key is body_mask[loss_bodies[j]] != 0.
    std::vector<std::size_t> loss_bodies;
    std::vector<Price> prices;
    std::vector<PathBudgets> budget_sets;
    std::vector<double> budgets_mw;
    std::vector<double> sector_gains;  // empty until first asked for
  };
  // Beam names: sectors count up from 0, the row's steered beam is the
  // largest name, and name_beam() counts down below it.
  static constexpr std::size_t kSteeredBeam = static_cast<std::size_t>(-1);

  const PhasedArray* tx_;
  const Channel* channel_;
  LinkBudget budget_;
  BlockageModel blockage_;
  std::span<const geo::Vec3> receivers_;
  std::span<const geo::BodyObstacle> bodies_;
  const Codebook* codebook_;
  LinkCounters counters_;
  std::vector<Row> rows_;  // one per receiver
  std::size_t rows_built_ = 0;
  std::size_t evaluations_ = 0;
  std::size_t named_beams_ = 0;
  // Scratch, reused by every row: one row's per-path gains, its traced
  // paths, the sector-gain rows of best_common_sector(), and
  // reflection_beams()'s response copy and beams.
  std::vector<double> path_gains_;
  std::vector<TracedPath> traced_;
  std::vector<std::span<const double>> sector_rows_;
  Steering lane_;
  std::vector<Awv> reflection_beams_;
  std::vector<double> budgets_scratch_;  // K_p of a row with no visible key
  // rss_above()'s last threshold and its value in mW.
  double threshold_dbm_ = std::numeric_limits<double>::quiet_NaN();
  double threshold_mw_ = 0.0;

  Row& row(std::size_t rx);
  /// The bound codebook; throws std::logic_error when there is none.
  [[nodiscard]] const Codebook& codebook() const;
  /// Throws std::invalid_argument unless body_mask has body_count() entries.
  void check_mask(std::span<const std::uint8_t> body_mask) const;
  /// The visible-body key of `body_mask` for row r; empty when the row has
  /// more distinct loss bodies than a key has bits (no memo then).
  [[nodiscard]] static std::optional<std::uint64_t> visible_key(
      const Row& r, std::span<const std::uint8_t> body_mask) noexcept;
  /// Path term `term`'s reflection and masked body losses, in
  /// Channel::paths order.
  [[nodiscard]] static double extra_loss_db(
      const Row& r, const PathTerm& term,
      std::span<const std::uint8_t> body_mask) noexcept;
  /// The link budget in mW over row r's paths, path p's transmit gain being
  /// path_gains[p] and its K_p budgets_mw[p]: the one summation behind
  /// rss(), rss_above() and rss_upper_bound().
  [[nodiscard]] static double power_mw(
      const Row& r, const double* budgets_mw,
      std::span<const double> path_gains) noexcept;
  /// Row r's K_p under `body_mask`: path_budgets() of its visible-body key,
  /// or, for a row with no key, computed into scratch (valid until the next
  /// call).
  [[nodiscard]] const double* budgets_mw(
      Row& r, std::span<const std::uint8_t> body_mask);
  /// Fills path_gains_ with every path gain of row r under `w`.
  void fill_gains(const Row& r, const Awv& w);
  /// rss() of the power sum `total_mw`: the one exact evaluation, counted.
  double evaluate(double total_mw, obs::Counter* evals);
  /// Row r's K_p for visible-body set `visible`, built on first use.
  [[nodiscard]] const PathBudgets& path_budgets(
      Row& r, std::uint64_t visible, std::span<const std::uint8_t> body_mask);
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
