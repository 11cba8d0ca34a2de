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

void BeamDesigner::stock_beam(mmwave::LinkTable& links, std::size_t sector,
                              std::span<const std::size_t> members,
                              std::span<const std::uint8_t> body_mask,
                              GroupBeam& out) const {
  out.awv = testbed_->codebook().beam(sector);
  out.custom = false;
  out.priced_as = sector;
  finish(out, members.size(), [&](std::size_t i) {
    return links.sector_rss(sector, members[i], body_mask, rss_evals_);
  });
}

void BeamDesigner::design_unicast(mmwave::LinkTable& links, std::size_t rx,
                                  std::span<const std::uint8_t> body_mask,
                                  GroupBeam& out) const {
  require_own_table(links, "design_unicast");
  if (unicast_designs_ != nullptr) unicast_designs_->add();
  if (config_.enable_custom_beams) {
    // Predicted-position steering: full aperture, no beam search.
    if (custom_selected_ != nullptr) custom_selected_->add();
    out.awv = links.steered(rx);
    out.custom = true;
    out.priced_as.reset();
    finish(out, 1, [&](std::size_t) {
      return links.steered_rss(rx, body_mask, rss_evals_);
    });
    return;
  }
  if (stock_selected_ != nullptr) stock_selected_->add();
  const std::size_t members[] = {rx};
  stock_beam(links, links.best_sector(rx), members, body_mask, out);
}

mmwave::LinkTable BeamDesigner::link_table(
    std::span<const geo::Vec3> receivers,
    std::span<const geo::BodyObstacle> bodies,
    mmwave::LinkCounters counters) const {
  return mmwave::LinkTable(testbed_->ap(), testbed_->channel(),
                           testbed_->budget(), testbed_->blockage(),
                           receivers, bodies, &testbed_->codebook(), counters);
}

void BeamDesigner::design_multicast(mmwave::LinkTable& links,
                                    std::span<const std::size_t> members,
                                    std::span<const std::uint8_t> body_mask,
                                    std::span<const std::size_t> others,
                                    GroupBeam& out) const {
  if (members.empty())
    throw std::invalid_argument("design_multicast: empty group");
  require_own_table(links, "design_multicast");
  if (multicast_designs_ != nullptr) multicast_designs_->add();

  // Stock fallback: the best common sector of the default codebook, priced
  // now and written into `out` only when it is the design.
  const std::size_t sector = links.best_common_sector(members);
  GroupBeam stock;
  finish(stock, members.size(), [&](std::size_t i) {
    return links.sector_rss(sector, members[i], body_mask, rss_evals_);
  });
  const auto select_stock = [&] {
    if (stock_selected_ != nullptr) stock_selected_->add();
    out.awv = testbed_->codebook().beam(sector);
    out.custom = false;
    out.priced_as = sector;
    out.min_member_rss_dbm = stock.min_member_rss_dbm;
    out.multicast_rate_mbps = stock.multicast_rate_mbps;
  };
  if (members.size() == 1 || !config_.enable_custom_beams) {
    select_stock();
    return;
  }

  // Fast path from the paper: if every member already has high RSS under
  // the stock common beam, keep it.
  if (stock.min_member_rss_dbm >= config_.default_beam_good_dbm) {
    select_stock();
    return;
  }

  // Synthesize the multi-lobe beam from per-member steered beams weighted
  // by measured per-member RSS (linear).
  std::vector<const mmwave::Awv*>& beams = scratch_.member_beams;
  std::vector<double>& rss_mw = scratch_.member_rss_mw;
  beams.clear();
  rss_mw.clear();
  for (const std::size_t member : members) {
    beams.push_back(&links.steered(member));
    const double own_rss = links.steered_rss(member, body_mask, rss_evals_);
    rss_mw.push_back(std::max(dbm_to_mw(own_rss), 1e-15));
  }
  mmwave::combine_awvs(beams, rss_mw, out.awv);
  out.custom = true;
  out.priced_as = links.name_beam();
  finish(out, members.size(), [&](std::size_t i) {
    return links.named_rss(*out.priced_as, out.awv, members[i], body_mask,
                           rss_evals_);
  });

  // Probe before use (Section 5): the custom beam must actually improve the
  // weakest member and must not blast a non-member. The spill probe only
  // compares, so it is decided in linear power where it can be.
  if (out.min_member_rss_dbm <
      stock.min_member_rss_dbm + config_.min_improvement_db) {
    if (probe_rejects_ != nullptr) probe_rejects_->add();
    select_stock();
    return;
  }
  for (std::size_t other : others) {
    if (links.rss_above(out.awv, other, body_mask, config_.max_spill_dbm,
                        rss_evals_)) {
      if (probe_rejects_ != nullptr) probe_rejects_->add();
      select_stock();
      return;
    }
  }
  if (custom_selected_ != nullptr) custom_selected_->add();
}

GroupBeam BeamDesigner::design_reflection(
    const geo::Vec3& position,
    std::span<const geo::BodyObstacle> bodies) const {
  scratch_.receiver[0] = position;
  if (scratch_.reflection_table.has_value())
    scratch_.reflection_table->rebind(scratch_.receiver, bodies);
  else
    scratch_.reflection_table.emplace(link_table(scratch_.receiver, bodies));
  scratch_.every_body.assign(bodies.size(), 1);
  return design_reflection(*scratch_.reflection_table, 0,
                           scratch_.every_body);
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
  const std::span<const mmwave::Awv> beams = links.reflection_beams(rx);
  std::optional<std::size_t> best_beam;
  for (std::size_t b = 0; b < beams.size(); ++b) {
    GroupBeam candidate;
    candidate.custom = true;
    finish(candidate, 1, [&](std::size_t) {
      return links.rss(beams[b], rx, body_mask, rss_evals_);
    });
    if (!best_beam.has_value() ||
        candidate.min_member_rss_dbm > best.min_member_rss_dbm) {
      best = candidate;
      best_beam = b;
    }
  }
  if (best_beam.has_value()) best.awv = beams[*best_beam];
  return best;
}

}  // namespace volcast::core
