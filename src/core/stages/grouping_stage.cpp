#include "core/stages/grouping_stage.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"
#include "mmwave/link.h"
#include "viewport/similarity.h"

namespace volcast::core {

void GroupingStage::run(SessionState& state, TickContext& ctx) {
  const SessionConfig& config = state.config;
  const std::size_t n = state.user_count();
  const std::size_t frame = ctx.frame;
  const std::uint32_t tick32 = ctx.tick32;
  obs::Telemetry* tel = state.tel;
  auto& users = state.users;
  const auto absent = [&](std::size_t u) { return state.absent(u); };

  ctx.ap_plans.assign(state.coordinator.ap_count(), {});
  for (std::size_t a = 0; a < state.coordinator.ap_count(); ++a) {
    const auto ap32 = static_cast<std::uint32_t>(a);
    if (state.has_faults && !state.ap_up[a]) {
      // AP in outage: it schedules nothing and radiates nothing.
      state.concurrent_beams[a].clear();
      state.backlog[a] = std::max(0.0, state.backlog[a] - state.dt);
      continue;
    }
    // Users of this AP that still need this tick's frame.
    std::vector<std::size_t>& members = ctx.ap_plans[a].members;  // user ids
    members.reserve(n);
    for (std::size_t u = 0; u < n; ++u) {
      if (state.assignment[u] != a) continue;
      if (absent(u)) continue;  // churned out mid-session
      if (users[u].frames_ahead > 0) {
        --users[u].frames_ahead;  // already prefetched
        continue;
      }
      if (ctx.unicast_rate[u] <= 0.0) {
        // Deep blockage outage: even the control PHY fails, nothing can
        // be delivered this tick. The player rides its buffer.
        ++state.outage_user_ticks;
        if (tel != nullptr) {
          obs::Event e;
          e.tick = tick32;
          e.type = obs::EventType::kOutage;
          e.user = static_cast<std::uint32_t>(u);
          e.ap = ap32;
          tel->record_event(e);
        }
        continue;
      }
      members.push_back(u);
    }
    if (members.empty()) continue;

    if (state.backlog[a] > kMaxBacklogS) {
      // Air queue over budget: skip this round entirely (frame drop);
      // the buffers and the adapter absorb it.
      ++state.dropped_ticks;
      if (tel != nullptr) {
        obs::Event e;
        e.tick = tick32;
        e.type = obs::EventType::kDroppedTick;
        e.ap = ap32;
        tel->record_event(e);
      }
      state.backlog[a] = std::max(0.0, state.backlog[a] - state.dt);
      continue;
    }

    obs::Span group_span = ctx.span(obs::Stage::kGroup, ap32);
    // Every buffer below is the session's, kept from round to round.
    SessionState::GroupingScratch& scratch = state.grouping_scratch;
    std::vector<UserState>& states = scratch.states;
    states.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::size_t u = members[i];
      UserState& s = states[i];
      s.user = u;
      s.visibility = &ctx.prediction.visibility[u];
      s.total_bits = visible_bits(ctx.prediction.visibility[u], state.store,
                                  frame, users[u].tier, state.shed.min_lod);
      s.unicast_rate_mbps = ctx.unicast_rate[u];
    }

    // This AP's tick link table (see tick_links): each candidate group's
    // body subsets are masks over the tick body list.
    mmwave::LinkTable& links = tick_links(state, ctx, a);
    const std::vector<std::uint8_t>& present_mask = ctx.present_mask;
    // The beam that priced each candidate group, with its ordered user
    // list: the beam a returned group is sent on (see form_groups). This
    // round's candidates are scratch.priced[0, priced_count).
    std::size_t priced_count = 0;

    auto group_tier = [&](std::span<const std::size_t> idx) {
      std::size_t tier = 0;
      for (std::size_t i : idx) tier = std::max(tier, users[members[i]].tier);
      return tier;
    };
    auto overlap_bits_fn = [&](std::span<const std::size_t> idx) {
      scratch.maps.clear();
      for (std::size_t i : idx)
        scratch.maps.push_back(&ctx.prediction.visibility[members[i]]);
      view::intersection(scratch.maps, scratch.overlap);
      return visible_bits(scratch.overlap, state.store, frame, group_tier(idx),
                          state.shed.min_lod);
    };
    // Scratch masks and lists of group_rate_fn, refilled on every call.
    std::vector<std::uint8_t>& outside = scratch.outside;
    std::vector<std::size_t>& others = scratch.others;
    std::vector<std::uint8_t>& member_mask = scratch.member_mask;
    member_mask.assign(present_mask.begin(), present_mask.end());
    auto group_rate_fn = [&](std::span<const std::size_t> idx) {
      if (!config.enable_multicast) return 0.0;
      if (priced_count == scratch.priced.size()) scratch.priced.emplace_back();
      SessionState::GroupingScratch::PricedBeam& priced =
          scratch.priced[priced_count++];
      std::vector<std::size_t>& group = priced.group;
      group.clear();
      for (std::size_t i : idx) group.push_back(members[i]);
      // The beam is shadowed by the present users outside the group and
      // every obstacle, and spill-probed against those users.
      outside.assign(present_mask.begin(), present_mask.end());
      for (std::size_t u : group) outside[u] = 0;
      others.clear();
      for (std::size_t u = 0; u < n; ++u)
        if (outside[u] != 0) others.push_back(u);
      GroupBeam& beam = priced.beam;
      state.designers[a].design_multicast(links, group, outside, others, beam);
      // Worst member RSS including that member's shadowing: every present
      // user but the member itself, and every obstacle. The design's own
      // price is reused where the member's row sees the same bodies under
      // both masks.
      double min_rss = 1e9;
      for (std::size_t u : group) {
        member_mask[u] = 0;
        const double rss = links.named_rss(beam.priced_as.value(), beam.awv,
                                           u, member_mask, state.rss_evals) +
                           ctx.shadow[u];
        member_mask[u] = present_mask[u];
        min_rss = std::min(min_rss, rss);
      }
      return state.mcs->goodput_mbps(min_rss);
    };
    // group_rate_fn's rate under any beam is at most the goodput of the
    // weakest member's beam-free RSS bound. Each member is priced against
    // present_mask minus itself, which no group changes, so the bound is
    // one number per user, built on first use. goodput_mbps is monotone
    // in RSS.
    std::vector<std::optional<double>>& rss_bound = scratch.rss_bound;
    rss_bound.assign(n, std::nullopt);
    std::vector<std::uint8_t>& bound_mask = scratch.bound_mask;
    bound_mask.assign(present_mask.begin(), present_mask.end());
    auto rate_bound_fn = [&](std::span<const std::size_t> idx) {
      if (!config.enable_multicast) return 0.0;
      double min_rss = 1e9;
      for (std::size_t i : idx) {
        const std::size_t u = members[i];
        if (!rss_bound[u].has_value()) {
          bound_mask[u] = 0;
          rss_bound[u] =
              links.rss_upper_bound(u, bound_mask) + ctx.shadow[u];
          bound_mask[u] = present_mask[u];
        }
        min_rss = std::min(min_rss, *rss_bound[u]);
      }
      return state.mcs->goodput_mbps(min_rss);
    };

    GrouperConfig gc;
    gc.policy = policy_;
    gc.target_fps = config.fps;
    gc.min_iou = config.grouping_min_iou;
    GroupingResult& grouping = ctx.ap_plans[a].grouping;
    grouping = form_groups(states, gc, group_rate_fn, overlap_bits_fn,
                           rate_bound_fn, &scratch.search);
    // Logical cost: candidate plans priced, each one group-beam design.
    group_span.add_cost(grouping.plan_evals);
    group_span.end();
    if (state.plan_evals != nullptr) {
      state.plan_evals->add(grouping.plan_evals);
      state.plan_hits->add(grouping.plan_hits);
      state.plan_skips->add(grouping.plan_skips);
    }
    if (tel != nullptr) {
      for (std::size_t g = 0; g < grouping.groups.size(); ++g) {
        obs::Event e;
        e.tick = tick32;
        e.type = obs::EventType::kGroupFormed;
        e.group = static_cast<std::uint32_t>(g);
        e.ap = ap32;
        e.value = static_cast<double>(grouping.groups[g].size());
        e.has_value = true;
        tel->record_event(e);
      }
    }

    obs::Span beam_span = ctx.span(obs::Stage::kBeam, ap32);
    // Beam bookkeeping for the result counters and for next tick's
    // cross-AP interference screening: the last multicast group's beam
    // represents this AP, else the largest group's first member's steered
    // beam. Without multicast a returned group priced at rate 0 and is
    // served by unicast, so it has no group beam.
    if (!grouping.groups.empty()) {
      const auto largest = std::max_element(
          grouping.groups.begin(), grouping.groups.end(),
          [](const auto& lhs, const auto& rhs) {
            return lhs.size() < rhs.size();
          });
      if (largest->size() == 1 || !config.enable_multicast) {
        state.concurrent_beams[a] = links.steered(largest->front());
      }
    } else {
      state.concurrent_beams[a].clear();
    }
    // One beam per multicast group, in group order: the one that priced it.
    for (const auto& group : grouping.groups) {
      if (group.size() < 2 || !config.enable_multicast) continue;
      const auto priced_end =
          scratch.priced.begin() + static_cast<std::ptrdiff_t>(priced_count);
      const auto priced = std::find_if(
          scratch.priced.begin(), priced_end,
          [&](const SessionState::GroupingScratch::PricedBeam& p) {
            return p.group == group;
          });
      if (priced == priced_end)
        throw std::logic_error(
            "GroupingStage: a multicast group was never priced");
      // Logical cost: one priced-beam lookup per multicast group.
      beam_span.add_cost(1);
      const GroupBeam& beam = priced->beam;
      if (beam.custom) {
        ++state.custom_beam_uses;
      } else {
        ++state.stock_beam_uses;
      }
      state.concurrent_beams[a] = beam.awv;
    }
    beam_span.end();

    ctx.ap_plans[a].active = true;
  }
}

}  // namespace volcast::core
