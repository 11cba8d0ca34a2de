#include "mmwave/link.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/units.h"
#include "obs/metrics.h"

namespace volcast::mmwave {

namespace {

/// Path p's link budget in mW at unit transmit gain, K_p: P_tx - FSPL -
/// extra losses + G_rx - implementation loss.
double unit_gain_mw(const LinkBudget& budget, double fspl_db,
                    double extra_loss_db) noexcept {
  return dbm_to_mw(budget.tx_power_dbm - fspl_db - extra_loss_db +
                   budget.rx_gain_dbi - budget.implementation_loss_db);
}

/// The one per-path term of the link budget, in mW: the transmit gain
/// (floored at 1e-12) times K_p. rss_dbm and LinkTable both sum it over
/// the paths in Channel::paths order.
double path_power_mw(double tx_gain, double unit_mw) noexcept {
  return std::max(tx_gain, 1e-12) * unit_mw;
}

/// The RSS of an empty (or underflowed) power sum.
constexpr double kFloorDbm = -200.0;

double total_to_dbm(double total_mw) noexcept {
  if (total_mw <= 0.0) return kFloorDbm;
  return mw_to_dbm(total_mw);
}

bool same_bits(const geo::Vec3& a, const geo::Vec3& b) noexcept {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y) &&
         std::bit_cast<std::uint64_t>(a.z) == std::bit_cast<std::uint64_t>(b.z);
}

}  // namespace

double rss_dbm(const PhasedArray& tx, const Awv& w, const Channel& channel,
               const geo::Vec3& rx_pos,
               std::span<const geo::BodyObstacle> bodies,
               const LinkBudget& budget, const BlockageModel& blockage,
               obs::Counter* evals) {
  if (evals != nullptr) evals->add();
  const auto paths = channel.paths(tx.pose().position, rx_pos, bodies,
                                   blockage);
  double total_mw = 0.0;
  for (const Path& path : paths)
    total_mw += path_power_mw(
        tx.gain(w, path.tx_direction),
        unit_gain_mw(budget, channel.fspl_db(path.length_m),
                     path.extra_loss_db));
  return total_to_dbm(total_mw);
}

LinkTable::LinkTable(const PhasedArray& tx, const Channel& channel,
                     const LinkBudget& budget, const BlockageModel& blockage,
                     std::span<const geo::Vec3> receivers,
                     std::span<const geo::BodyObstacle> bodies,
                     const Codebook* codebook, LinkCounters counters)
    : tx_(&tx),
      channel_(&channel),
      budget_(budget),
      blockage_(blockage),
      receivers_(receivers),
      bodies_(bodies),
      codebook_(codebook),
      counters_(counters),
      rows_(receivers.size()) {}

void LinkTable::rebind(std::span<const geo::Vec3> receivers,
                       std::span<const geo::BodyObstacle> bodies) {
  receivers_ = receivers;
  bodies_ = bodies;
  rows_.resize(receivers.size());
  for (Row& r : rows_) r.built = false;
  rows_built_ = 0;
  evaluations_ = 0;
  named_beams_ = 0;
}

const Steering& LinkTable::steering(std::size_t rx) {
  Row& r = row(rx);
  if (!r.has_toward) {
    const geo::Vec3 local =
        tx_->local_direction(receivers_[rx] - tx_->pose().position);
    // A response is a function of its array-frame direction alone.
    if (!r.paths.empty() && r.paths.front().line_of_sight &&
        same_bits(local, r.los_local)) {
      r.responses.lane(0, r.toward.phasors);
      r.toward.element_gain = r.element_gains.front();
    } else {
      tx_->response(local, r.toward);
    }
    r.has_toward = true;
  }
  return r.toward;
}

const Awv& LinkTable::steered(std::size_t rx) {
  Row& r = row(rx);
  if (!r.has_steered) {
    PhasedArray::steer(steering(rx), r.steered);
    r.has_steered = true;
  }
  return r.steered;
}

std::span<const Awv> LinkTable::reflection_beams(std::size_t rx) {
  const Row& r = row(rx);
  std::size_t count = 0;
  for (std::size_t p = 0; p < r.paths.size(); ++p) {
    if (r.paths[p].line_of_sight) continue;
    if (count == reflection_beams_.size()) reflection_beams_.emplace_back();
    r.responses.lane(p, lane_.phasors);
    lane_.element_gain = r.element_gains[p];
    PhasedArray::steer(lane_, reflection_beams_[count++]);
  }
  return {reflection_beams_.data(), count};
}

const Codebook& LinkTable::codebook() const {
  if (codebook_ == nullptr)
    throw std::logic_error("LinkTable: no codebook bound for sector gains");
  return *codebook_;
}

std::span<const double> LinkTable::sector_gains(std::size_t rx) {
  const Codebook& sectors = codebook();
  Row& r = row(rx);
  if (r.sector_gains.empty()) {
    r.sector_gains.resize(sectors.size());
    sectors.gains(steering(rx), r.sector_gains);
  }
  return r.sector_gains;
}

std::size_t LinkTable::best_sector(std::size_t rx) {
  return mmwave::best_sector(sector_gains(rx));
}

std::size_t LinkTable::best_common_sector(std::span<const std::size_t> rxs) {
  const Codebook& sectors = codebook();
  sector_rows_.clear();
  for (std::size_t rx : rxs) sector_rows_.push_back(sector_gains(rx));
  return mmwave::best_common_sector(sector_rows_, sectors.size());
}

LinkTable::Row& LinkTable::row(std::size_t rx) {
  Row& r = rows_.at(rx);
  if (r.built) return r;
  ++rows_built_;
  if (counters_.rows != nullptr) counters_.rows->add();
  const geo::Vec3& origin = tx_->pose().position;
  r.built = true;
  r.has_toward = false;
  r.has_steered = false;
  r.paths.clear();
  r.responses.reset(tx_->element_count());
  r.element_gains.clear();
  r.losses.clear();
  r.loss_bodies.clear();
  r.prices.clear();
  r.budget_sets.clear();
  r.budgets_mw.clear();
  r.sector_gains.clear();
  channel_->trace(origin, receivers_[rx], traced_);
  for (const TracedPath& traced : traced_) {
    const geo::Vec3 local = tx_->local_direction(traced.path.tx_direction);
    if (r.paths.empty()) r.los_local = local;  // trace puts the LoS first
    r.element_gains.push_back(tx_->response(local, r.responses.push_lane()));
    PathTerm term;
    term.line_of_sight = traced.path.line_of_sight;
    term.fspl_db = channel_->fspl_db(traced.path.length_m);
    term.reflection_loss_db = traced.path.extra_loss_db;
    term.segments = traced.segment_count();
    for (std::size_t s = 0; s < term.segments; ++s) {
      term.loss_begin[s] = r.losses.size();
      const geo::Vec3& a = traced.vertices[s];
      const geo::Vec3& b = traced.vertices[s + 1];
      const SegmentReach reach(a, b, blockage_.clearance_m);
      for (std::size_t k = 0; k < bodies_.size(); ++k) {
        if (reach.out_of_reach(bodies_[k].position)) continue;
        const double loss = blockage_.segment_loss_db(a, b, bodies_[k]);
        if (loss != 0.0) {
          r.losses.push_back({k, loss});
          r.loss_bodies.push_back(k);
        }
      }
    }
    term.loss_begin[term.segments] = r.losses.size();
    r.paths.push_back(term);
  }
  std::sort(r.loss_bodies.begin(), r.loss_bodies.end());
  r.loss_bodies.erase(std::unique(r.loss_bodies.begin(), r.loss_bodies.end()),
                      r.loss_bodies.end());
  return r;
}

void LinkTable::check_mask(std::span<const std::uint8_t> body_mask) const {
  if (body_mask.size() != bodies_.size())
    throw std::invalid_argument("LinkTable: body mask size mismatch");
}

std::optional<std::uint64_t> LinkTable::visible_key(
    const Row& r, std::span<const std::uint8_t> body_mask) noexcept {
  if (r.loss_bodies.size() > 64) return std::nullopt;
  std::uint64_t key = 0;
  for (std::size_t j = 0; j < r.loss_bodies.size(); ++j)
    if (body_mask[r.loss_bodies[j]] != 0) key |= std::uint64_t{1} << j;
  return key;
}

double LinkTable::extra_loss_db(
    const Row& r, const PathTerm& term,
    std::span<const std::uint8_t> body_mask) noexcept {
  // Channel::paths order: reflection losses, then each segment's body
  // losses summed from zero in body-list order.
  double extra_loss_db = term.reflection_loss_db;
  for (std::size_t s = 0; s < term.segments; ++s) {
    double segment_db = 0.0;
    for (std::size_t i = term.loss_begin[s]; i < term.loss_begin[s + 1]; ++i)
      if (body_mask[r.losses[i].body] != 0) segment_db += r.losses[i].loss_db;
    extra_loss_db += segment_db;
  }
  return extra_loss_db;
}

double LinkTable::power_mw(const Row& r, const double* budgets_mw,
                           std::span<const double> path_gains) noexcept {
  double total_mw = 0.0;
  for (std::size_t p = 0; p < r.paths.size(); ++p)
    total_mw += path_power_mw(path_gains[p], budgets_mw[p]);
  return total_mw;
}

const double* LinkTable::budgets_mw(Row& r,
                                    std::span<const std::uint8_t> body_mask) {
  if (const std::optional<std::uint64_t> visible = visible_key(r, body_mask)) {
    const std::size_t first = path_budgets(r, *visible, body_mask).first;
    return r.budgets_mw.data() + first;
  }
  budgets_scratch_.clear();
  for (const PathTerm& term : r.paths)
    budgets_scratch_.push_back(unit_gain_mw(
        budget_, term.fspl_db, extra_loss_db(r, term, body_mask)));
  return budgets_scratch_.data();
}

double LinkTable::evaluate(double total_mw, obs::Counter* evals) {
  ++evaluations_;
  if (evals != nullptr) evals->add();
  return total_to_dbm(total_mw);
}

void LinkTable::fill_gains(const Row& r, const Awv& w) {
  path_gains_.resize(r.paths.size());
  array_gains(w, r.responses, r.element_gains, path_gains_);
}

double LinkTable::rss(const Awv& w, std::size_t rx,
                      std::span<const std::uint8_t> body_mask,
                      obs::Counter* evals) {
  check_mask(body_mask);
  Row& r = row(rx);
  fill_gains(r, w);
  return evaluate(power_mw(r, budgets_mw(r, body_mask), path_gains_), evals);
}

std::size_t LinkTable::name_beam() noexcept {
  return kSteeredBeam - 1 - named_beams_++;
}

double LinkTable::named_rss(std::size_t name, const Awv& w, std::size_t rx,
                            std::span<const std::uint8_t> body_mask,
                            obs::Counter* evals) {
  check_mask(body_mask);
  Row& r = row(rx);
  const std::optional<std::uint64_t> visible = visible_key(r, body_mask);
  if (!visible) return rss(w, rx, body_mask, evals);
  for (const Price& price : r.prices)
    if (price.beam == name && price.visible == *visible) {
      if (counters_.reused != nullptr) counters_.reused->add();
      return price.rss_dbm;
    }
  const double rss_dbm = rss(w, rx, body_mask, evals);
  r.prices.push_back({name, *visible, rss_dbm});
  return rss_dbm;
}

double LinkTable::sector_rss(std::size_t sector, std::size_t rx,
                             std::span<const std::uint8_t> body_mask,
                             obs::Counter* evals) {
  return named_rss(sector, codebook().beam(sector), rx, body_mask, evals);
}

double LinkTable::steered_rss(std::size_t rx,
                              std::span<const std::uint8_t> body_mask,
                              obs::Counter* evals) {
  return named_rss(kSteeredBeam, steered(rx), rx, body_mask, evals);
}

const LinkTable::PathBudgets& LinkTable::path_budgets(
    Row& r, std::uint64_t visible, std::span<const std::uint8_t> body_mask) {
  for (const PathBudgets& set : r.budget_sets)
    if (set.visible == visible) return set;
  const auto n = static_cast<double>(r.responses.elements());
  PathBudgets set{visible, r.budgets_mw.size(), 0.0, 0.0};
  for (std::size_t p = 0; p < r.paths.size(); ++p) {
    const PathTerm& term = r.paths[p];
    const double k =
        unit_gain_mw(budget_, term.fspl_db, extra_loss_db(r, term, body_mask));
    r.budgets_mw.push_back(k);
    set.full_gain_mw += n * r.element_gains[p] * k;
    set.unit_mw += k;
  }
  r.budget_sets.push_back(set);
  return r.budget_sets.back();
}

bool LinkTable::rss_above(const Awv& w, std::size_t rx,
                          std::span<const std::uint8_t> body_mask,
                          double threshold_dbm, obs::Counter* evals) {
  constexpr double kPad = 1e-9;
  constexpr double kBoundPad = 1.0 + 1e-6;
  check_mask(body_mask);
  Row& r = row(rx);
  const std::optional<std::uint64_t> visible = visible_key(r, body_mask);
  // At or above the floor, total_to_dbm's -200 dBm for an empty sum stays
  // below the threshold, as a zero sum in mW does.
  if (!visible || !(threshold_dbm >= kFloorDbm))
    return rss(w, rx, body_mask, evals) > threshold_dbm;
  if (threshold_dbm != threshold_dbm_) {
    threshold_dbm_ = threshold_dbm;
    threshold_mw_ = dbm_to_mw(threshold_dbm);
  }
  if (!std::isfinite(threshold_mw_))
    return rss(w, rx, body_mask, evals) > threshold_dbm;
  const double below_mw = threshold_mw_ * (1.0 - kPad);
  const double above_mw = threshold_mw_ * (1.0 + kPad);
  const PathBudgets& set = path_budgets(r, *visible, body_mask);
  double power = 0.0;
  for (const Complex& c : w) power += std::norm(c);
  const auto screened = [this](bool above) {
    if (counters_.screened != nullptr) counters_.screened->add();
    return above;
  };
  if ((power * kBoundPad * set.full_gain_mw + 1e-12 * set.unit_mw) *
          kBoundPad <
      below_mw)
    return screened(false);
  fill_gains(r, w);
  const double total_mw =
      power_mw(r, r.budgets_mw.data() + set.first, path_gains_);
  if (total_mw > above_mw) return screened(true);
  if (total_mw < below_mw) return screened(false);
  // Inside the pad the decision is rss()'s: the same sum, turned to dBm.
  return evaluate(total_mw, evals) > threshold_dbm;
}

double LinkTable::rss_upper_bound(std::size_t rx,
                                  std::span<const std::uint8_t> body_mask) {
  constexpr double kGainPad = 1.0 + 1e-6;
  constexpr double kPadDb = 1e-6;
  check_mask(body_mask);
  Row& r = row(rx);
  const auto n = static_cast<double>(r.responses.elements());
  path_gains_.clear();
  for (const double element_gain : r.element_gains)
    path_gains_.push_back(n * element_gain * kGainPad);
  return total_to_dbm(power_mw(r, budgets_mw(r, body_mask), path_gains_)) +
         kPadDb;
}

double best_beam_rss_dbm(const PhasedArray& tx, const Codebook& codebook,
                         const Channel& channel, const geo::Vec3& rx_pos,
                         std::span<const geo::BodyObstacle> bodies,
                         const LinkBudget& budget,
                         const BlockageModel& blockage, obs::Counter* evals) {
  const std::size_t beam = codebook.best_beam_toward(tx, rx_pos);
  return rss_dbm(tx, codebook.beam(beam), channel, rx_pos, bodies, budget,
                 blockage, evals);
}

ShadowingProcess::ShadowingProcess(double sigma_db, double coherence_time_s,
                                   std::uint64_t seed)
    : sigma_db_(sigma_db),
      coherence_time_s_(std::max(coherence_time_s, 1e-3)),
      rng_(seed) {
  value_db_ = rng_.normal(0.0, sigma_db_);
}

double ShadowingProcess::step(double dt_s) {
  // AR(1) / Gauss-Markov: rho = exp(-dt / tau) keeps the marginal variance
  // at sigma^2 for any step size.
  const double rho = std::exp(-std::max(dt_s, 0.0) / coherence_time_s_);
  const double innovation_sigma = sigma_db_ * std::sqrt(1.0 - rho * rho);
  value_db_ = rho * value_db_ + rng_.normal(0.0, innovation_sigma);
  return value_db_;
}

}  // namespace volcast::mmwave
