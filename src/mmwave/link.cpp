#include "mmwave/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.h"
#include "obs/metrics.h"

namespace volcast::mmwave {

namespace {

/// The one per-path term of the link budget, in mW: P_tx + G_tx - FSPL -
/// extra losses + G_rx - implementation loss. rss_dbm and LinkTable::rss
/// both sum it; it stays out of line so that FMA contraction
/// (VOLCAST_NATIVE) cannot compile the two callers' copies differently.
[[gnu::noinline]] double path_power_mw(const LinkBudget& budget,
                                       double tx_gain, double fspl_db,
                                       double extra_loss_db) noexcept {
  const double gain_db = ratio_to_db(std::max(tx_gain, 1e-12));
  const double rx_dbm = budget.tx_power_dbm + gain_db - fspl_db -
                        extra_loss_db + budget.rx_gain_dbi -
                        budget.implementation_loss_db;
  return dbm_to_mw(rx_dbm);
}

double total_to_dbm(double total_mw) noexcept {
  if (total_mw <= 0.0) return -200.0;
  return mw_to_dbm(total_mw);
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
    total_mw += path_power_mw(budget, tx.gain(w, path.tx_direction),
                              channel.fspl_db(path.length_m),
                              path.extra_loss_db);
  return total_to_dbm(total_mw);
}

LinkTable::LinkTable(const PhasedArray& tx, const Channel& channel,
                     const LinkBudget& budget, const BlockageModel& blockage,
                     std::span<const geo::Vec3> receivers,
                     std::span<const geo::BodyObstacle> bodies,
                     const Codebook* codebook, obs::Counter* rows)
    : tx_(&tx),
      channel_(&channel),
      budget_(budget),
      blockage_(blockage),
      receivers_(receivers),
      bodies_(bodies),
      codebook_(codebook),
      rows_counter_(rows),
      rows_(receivers.size()) {}

const Steering& LinkTable::steering(std::size_t rx) {
  Row& r = row(rx);
  if (!r.toward)
    r.toward = tx_->steering(receivers_[rx] - tx_->pose().position);
  return *r.toward;
}

const Awv& LinkTable::steered(std::size_t rx) {
  Row& r = row(rx);
  if (!r.steered) r.steered = PhasedArray::steer(steering(rx));
  return *r.steered;
}

std::vector<Awv> LinkTable::reflection_beams(std::size_t rx) {
  const Row& r = row(rx);
  std::vector<Awv> out;
  for (std::size_t p = 0; p < r.paths.size(); ++p)
    if (!r.paths[p].line_of_sight)
      out.push_back(PhasedArray::steer(
          Steering{r.responses.lane(p), r.element_gains[p]}));
  return out;
}

const Codebook& LinkTable::codebook() const {
  if (codebook_ == nullptr)
    throw std::logic_error("LinkTable: no codebook bound for sector gains");
  return *codebook_;
}

std::span<const double> LinkTable::sector_gains(std::size_t rx) {
  const Codebook& sectors = codebook();
  Row& r = row(rx);
  if (r.sector_gains.empty()) r.sector_gains = sectors.gains(steering(rx));
  return r.sector_gains;
}

std::size_t LinkTable::best_sector(std::size_t rx) {
  return mmwave::best_sector(sector_gains(rx));
}

std::size_t LinkTable::best_common_sector(std::span<const std::size_t> rxs) {
  const Codebook& sectors = codebook();
  std::vector<std::span<const double>> targets;
  targets.reserve(rxs.size());
  for (std::size_t rx : rxs) targets.push_back(sector_gains(rx));
  return mmwave::best_common_sector(targets, sectors.size());
}

LinkTable::Row& LinkTable::row(std::size_t rx) {
  std::optional<Row>& slot = rows_.at(rx);
  if (slot.has_value()) return *slot;
  ++rows_built_;
  if (rows_counter_ != nullptr) rows_counter_->add();
  const geo::Vec3& origin = tx_->pose().position;
  Row& r = slot.emplace();
  r.responses = LaneBlocks(tx_->element_count());
  for (const TracedPath& traced : channel_->trace(origin, receivers_[rx])) {
    const Steering response = tx_->steering(traced.path.tx_direction);
    r.responses.push_back(response.phasors);
    r.element_gains.push_back(response.element_gain);
    PathTerm term;
    term.line_of_sight = traced.path.line_of_sight;
    term.fspl_db = channel_->fspl_db(traced.path.length_m);
    term.reflection_loss_db = traced.path.extra_loss_db;
    term.segments = traced.segment_count();
    for (std::size_t s = 0; s < term.segments; ++s) {
      term.loss_begin[s] = r.losses.size();
      for (std::size_t k = 0; k < bodies_.size(); ++k) {
        const double loss = blockage_.segment_loss_db(
            traced.vertices[s], traced.vertices[s + 1], bodies_[k]);
        if (loss != 0.0) r.losses.push_back({k, loss});
      }
    }
    term.loss_begin[term.segments] = r.losses.size();
    r.paths.push_back(std::move(term));
  }
  return r;
}

void LinkTable::check_mask(std::span<const std::uint8_t> body_mask) const {
  if (body_mask.size() != bodies_.size())
    throw std::invalid_argument("LinkTable: body mask size mismatch");
}

double LinkTable::masked_rss(const Row& r,
                             std::span<const std::uint8_t> body_mask,
                             std::span<const double> path_gains) const {
  double total_mw = 0.0;
  for (std::size_t p = 0; p < r.paths.size(); ++p) {
    const PathTerm& term = r.paths[p];
    // Channel::paths order: reflection losses, then each segment's body
    // losses summed from zero in body-list order.
    double extra_loss_db = term.reflection_loss_db;
    for (std::size_t s = 0; s < term.segments; ++s) {
      double segment_db = 0.0;
      for (std::size_t i = term.loss_begin[s]; i < term.loss_begin[s + 1];
           ++i)
        if (body_mask[r.losses[i].body] != 0) segment_db += r.losses[i].loss_db;
      extra_loss_db += segment_db;
    }
    total_mw +=
        path_power_mw(budget_, path_gains[p], term.fspl_db, extra_loss_db);
  }
  return total_to_dbm(total_mw);
}

double LinkTable::rss(const Awv& w, std::size_t rx,
                      std::span<const std::uint8_t> body_mask,
                      obs::Counter* evals) {
  check_mask(body_mask);
  const Row& r = row(rx);
  path_gains_.resize(r.paths.size());
  array_gains(w, r.responses, r.element_gains, path_gains_);
  const double total_dbm = masked_rss(r, body_mask, path_gains_);
  ++evaluations_;
  if (evals != nullptr) evals->add();
  return total_dbm;
}

double LinkTable::rss_upper_bound(std::size_t rx,
                                  std::span<const std::uint8_t> body_mask) {
  constexpr double kGainPad = 1.0 + 1e-6;
  constexpr double kPadDb = 1e-6;
  check_mask(body_mask);
  const Row& r = row(rx);
  const auto n = static_cast<double>(r.responses.elements());
  path_gains_.clear();
  for (const double element_gain : r.element_gains)
    path_gains_.push_back(n * element_gain * kGainPad);
  return masked_rss(r, body_mask, path_gains_) + kPadDb;
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
