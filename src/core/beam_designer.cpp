#include "core/beam_designer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/units.h"
#include "obs/metrics.h"

namespace volcast::core {

BeamDesigner::BeamDesigner(const Testbed& testbed, BeamDesignerConfig config)
    : testbed_(&testbed), config_(config) {
  if (config_.metrics != nullptr) {
    unicast_designs_ = &config_.metrics->counter("beam.unicast_designs");
    multicast_designs_ = &config_.metrics->counter("beam.multicast_designs");
    reflection_designs_ =
        &config_.metrics->counter("beam.reflection_designs");
    custom_selected_ = &config_.metrics->counter("beam.custom_selected");
    stock_selected_ = &config_.metrics->counter("beam.stock_selected");
    probe_rejects_ = &config_.metrics->counter("beam.probe_rejects");
    rss_evals_ = &config_.metrics->counter("mmwave.rss_evals");
  }
}

void BeamDesigner::require_own_table(const mmwave::LinkTable& links,
                                     const char* who) const {
  if (&links.tx() != &testbed_->ap())
    throw std::invalid_argument(std::string(who) +
                                ": link table built for another array");
}

template <typename MemberRss>
void BeamDesigner::finish(GroupBeam& beam, std::size_t members,
                          MemberRss&& member_rss) const {
  beam.min_member_rss_dbm = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < members; ++i)
    beam.min_member_rss_dbm = std::min(beam.min_member_rss_dbm, member_rss(i));
  if (members == 0) beam.min_member_rss_dbm = -200.0;
  beam.multicast_rate_mbps =
      testbed_->mcs().goodput_mbps(beam.min_member_rss_dbm);
}

GroupBeam BeamDesigner::stock_beam(
    mmwave::LinkTable& links, std::size_t sector,
    std::span<const std::size_t> members,
    std::span<const std::uint8_t> body_mask) const {
  GroupBeam beam;
  beam.awv = testbed_->codebook().beam(sector);
  beam.priced_as = sector;
  finish(beam, members.size(), [&](std::size_t i) {
    return links.sector_rss(sector, members[i], body_mask, rss_evals_);
  });
  return beam;
}

GroupBeam BeamDesigner::design_unicast(
    mmwave::LinkTable& links, std::size_t rx,
    std::span<const std::uint8_t> body_mask) const {
  require_own_table(links, "design_unicast");
  if (unicast_designs_ != nullptr) unicast_designs_->add();
  if (config_.enable_custom_beams) {
    // Predicted-position steering: full aperture, no beam search.
    if (custom_selected_ != nullptr) custom_selected_->add();
    GroupBeam steered;
    steered.awv = links.steered(rx);
    steered.custom = true;
    finish(steered, 1, [&](std::size_t) {
      return links.steered_rss(rx, body_mask, rss_evals_);
    });
    return steered;
  }
  if (stock_selected_ != nullptr) stock_selected_->add();
  const std::size_t members[] = {rx};
  return stock_beam(links, links.best_sector(rx), members, body_mask);
}

mmwave::LinkTable BeamDesigner::link_table(
    std::span<const geo::Vec3> receivers,
    std::span<const geo::BodyObstacle> bodies,
    mmwave::LinkCounters counters) const {
  return mmwave::LinkTable(testbed_->ap(), testbed_->channel(),
                           testbed_->budget(), testbed_->blockage(),
                           receivers, bodies, &testbed_->codebook(), counters);
}

GroupBeam BeamDesigner::design_multicast(
    mmwave::LinkTable& links, std::span<const std::size_t> members,
    std::span<const std::uint8_t> body_mask,
    std::span<const std::size_t> others) const {
  if (members.empty())
    throw std::invalid_argument("design_multicast: empty group");
  require_own_table(links, "design_multicast");
  if (multicast_designs_ != nullptr) multicast_designs_->add();

  // Stock fallback: the best common sector of the default codebook.
  GroupBeam stock = stock_beam(links, links.best_common_sector(members),
                               members, body_mask);
  if (members.size() == 1 || !config_.enable_custom_beams) {
    if (stock_selected_ != nullptr) stock_selected_->add();
    return stock;
  }

  // Fast path from the paper: if every member already has high RSS under
  // the stock common beam, keep it.
  if (stock.min_member_rss_dbm >= config_.default_beam_good_dbm) {
    if (stock_selected_ != nullptr) stock_selected_->add();
    return stock;
  }

  // Synthesize the multi-lobe beam from per-member steered beams weighted
  // by measured per-member RSS (linear).
  std::vector<mmwave::Awv> beams;
  std::vector<double> rss_mw;
  beams.reserve(members.size());
  rss_mw.reserve(members.size());
  for (const std::size_t member : members) {
    beams.push_back(links.steered(member));
    const double own_rss = links.steered_rss(member, body_mask, rss_evals_);
    rss_mw.push_back(std::max(dbm_to_mw(own_rss), 1e-15));
  }
  GroupBeam custom;
  custom.awv = mmwave::combine_awvs(beams, rss_mw);
  custom.custom = true;
  custom.priced_as = links.name_beam();
  finish(custom, members.size(), [&](std::size_t i) {
    return links.named_rss(*custom.priced_as, custom.awv, members[i],
                           body_mask, rss_evals_);
  });

  // Probe before use (Section 5): the custom beam must actually improve the
  // weakest member and must not blast a non-member. The spill probe only
  // compares, so it is decided in linear power where it can be.
  if (custom.min_member_rss_dbm <
      stock.min_member_rss_dbm + config_.min_improvement_db) {
    if (probe_rejects_ != nullptr) probe_rejects_->add();
    if (stock_selected_ != nullptr) stock_selected_->add();
    return stock;
  }
  for (std::size_t other : others) {
    if (links.rss_above(custom.awv, other, body_mask, config_.max_spill_dbm,
                        rss_evals_)) {
      if (probe_rejects_ != nullptr) probe_rejects_->add();
      if (stock_selected_ != nullptr) stock_selected_->add();
      return stock;
    }
  }
  if (custom_selected_ != nullptr) custom_selected_->add();
  return custom;
}

GroupBeam BeamDesigner::design_reflection(
    const geo::Vec3& position,
    std::span<const geo::BodyObstacle> bodies) const {
  const geo::Vec3 receivers[] = {position};
  mmwave::LinkTable links = link_table(receivers, bodies);
  const std::vector<std::uint8_t> every_body(bodies.size(), 1);
  return design_reflection(links, 0, every_body);
}

GroupBeam BeamDesigner::design_reflection(
    mmwave::LinkTable& links, std::size_t rx,
    std::span<const std::uint8_t> body_mask) const {
  // Try a beam at every bounce (ignoring bodies along the candidate paths
  // — the whole point is to route around them) and keep the one with the
  // best *achievable* RSS: the geometrically shortest bounce can sit
  // behind the array's element pattern and be useless.
  require_own_table(links, "design_reflection");
  if (reflection_designs_ != nullptr) reflection_designs_->add();
  GroupBeam best{};
  for (mmwave::Awv& beam : links.reflection_beams(rx)) {
    GroupBeam candidate;
    candidate.awv = std::move(beam);
    candidate.custom = true;
    finish(candidate, 1, [&](std::size_t) {
      return links.rss(candidate.awv, rx, body_mask, rss_evals_);
    });
    if (best.awv.empty() ||
        candidate.min_member_rss_dbm > best.min_member_rss_dbm)
      best = std::move(candidate);
  }
  return best;
}

}  // namespace volcast::core
