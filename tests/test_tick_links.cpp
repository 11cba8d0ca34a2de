// The tick link state: one link table per AP per tick, shared by every
// stage (see tick_context.h).
//
// tick_links() must refuse to hand out a table once the vectors it
// references changed, and a session must build each user's row at most
// once per AP per tick: at most n rows a tick with one AP, 2n with two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/stages/registry.h"
#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "session_golden.h"

namespace volcast::core {
namespace {

SessionConfig small_config(std::size_t users) {
  SessionConfig c;
  c.user_count = users;
  c.duration_s = 2.0;
  c.master_points = 30'000;
  c.video_frames = 20;
  c.seed = 7;
  return c;
}

TEST(TickLinks, OneTablePerApBuiltOverTheTickBodyList) {
  SessionState state(small_config(3));
  TickContext ctx;
  ctx.room_pos = {{3, 3, 1.5}, {4, 3.5, 1.5}, {5, 3, 1.5}};
  for (const geo::Vec3& p : ctx.room_pos) ctx.bodies.push_back({p, 0.25, 1.8});
  mmwave::LinkTable& table = tick_links(state, ctx, 0);
  EXPECT_EQ(table.receivers().size(), 3u);
  EXPECT_EQ(ctx.link_bodies.size(), 3u);
  EXPECT_EQ(ctx.present_mask, (std::vector<std::uint8_t>{1, 1, 1}));
  EXPECT_EQ(table.rows_built(), 0u);  // rows stay lazy
  EXPECT_EQ(&tick_links(state, ctx, 0), &table);
  EXPECT_THROW((void)tick_links(state, ctx, 1), std::out_of_range);
}

TEST(TickLinks, ThrowsOnceTheReferencedVectorsChange) {
  SessionState state(small_config(2));
  TickContext ctx;
  ctx.room_pos = {{3, 3, 1.5}, {5, 3, 1.5}};
  for (const geo::Vec3& p : ctx.room_pos) ctx.bodies.push_back({p, 0.25, 1.8});
  (void)tick_links(state, ctx, 0);
  ctx.room_pos.push_back({4, 4, 1.5});
  EXPECT_THROW((void)tick_links(state, ctx, 0), std::logic_error);

  TickContext other;
  other.room_pos = {{3, 3, 1.5}, {5, 3, 1.5}};
  for (const geo::Vec3& p : other.room_pos)
    other.bodies.push_back({p, 0.25, 1.8});
  (void)tick_links(state, other, 0);
  other.link_bodies.push_back({{4, 1, 0}, 0.3, 1.8});
  EXPECT_THROW((void)tick_links(state, other, 0), std::logic_error);
}

/// Runs the pipeline's own transport policy, then records how many rows
/// the tick's link tables built and how many exact RSS evaluations they
/// made, and how far mmwave.link_rows and mmwave.rss_evals moved.
class RowProbe final : public Stage {
 public:
  struct Tick {
    std::size_t table_rows = 0;
    std::uint64_t counted_rows = 0;
    std::size_t table_evals = 0;
    std::uint64_t counted_evals = 0;
  };

  RowProbe(std::unique_ptr<Stage> inner,
           std::shared_ptr<std::vector<Tick>> ticks)
      : inner_(std::move(inner)), ticks_(std::move(ticks)) {}

  [[nodiscard]] StageKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "link_rows_probe";
  }
  void run(SessionState& state, TickContext& ctx) override {
    inner_->run(state, ctx);
    Tick tick;
    for (const mmwave::LinkTable* table : ctx.links) {
      if (table == nullptr) continue;
      tick.table_rows += table->rows_built();
      tick.table_evals += table->evaluations();
    }
    const std::uint64_t counted = state.link_counters.rows->value();
    tick.counted_rows = counted - counted_before_;
    counted_before_ = counted;
    const std::uint64_t evals = state.rss_evals->value();
    tick.counted_evals = evals - evals_before_;
    evals_before_ = evals;
    ticks_->push_back(tick);
  }

 private:
  std::unique_ptr<Stage> inner_;
  std::shared_ptr<std::vector<Tick>> ticks_;
  std::uint64_t counted_before_ = 0;
  std::uint64_t evals_before_ = 0;
};

std::vector<RowProbe::Tick> rows_per_tick(SessionConfig c) {
  auto ticks = std::make_shared<std::vector<RowProbe::Tick>>();
  PolicyRegistry::instance().add(
      StageKind::kTransport, "link_rows_probe",
      [ticks](const SessionConfig& config) -> std::unique_ptr<Stage> {
        return std::make_unique<RowProbe>(
            PolicyRegistry::instance().create(
                StageKind::kTransport,
                default_policy(StageKind::kTransport, config), config),
            ticks);
      });
  obs::Telemetry telemetry;
  c.telemetry = &telemetry;
  c.policy_overrides["transport"] = "link_rows_probe";
  (void)Session(c).run();
  return *ticks;
}

TEST(TickLinks, SixteenUsersOneApBuildAtMostSixteenRowsATick) {
  const SessionConfig c = small_config(16);
  const auto ticks = rows_per_tick(c);
  ASSERT_EQ(ticks.size(), 60u);
  std::size_t most = 0;
  for (const RowProbe::Tick& tick : ticks) {
    EXPECT_LE(tick.table_rows, 16u);
    EXPECT_EQ(tick.counted_rows, tick.table_rows);
    most = std::max(most, tick.table_rows);
  }
  EXPECT_EQ(most, 16u);
}

TEST(TickLinks, GoldenChaosBuildsAtMostTwoRowsPerUserATick) {
  const auto matrix = golden_matrix();
  const auto chaos = std::find_if(matrix.begin(), matrix.end(),
                                  [](const GoldenCase& g) {
                                    return g.name == "chaos";
                                  });
  ASSERT_NE(chaos, matrix.end());
  ASSERT_EQ(chaos->config.ap_count, 2u);
  const std::size_t n = chaos->config.user_count;
  const auto ticks = rows_per_tick(chaos->config);
  ASSERT_FALSE(ticks.empty());
  std::size_t most = 0;
  for (const RowProbe::Tick& tick : ticks) {
    EXPECT_LE(tick.table_rows, 2 * n);
    EXPECT_EQ(tick.counted_rows, tick.table_rows);
    most = std::max(most, tick.table_rows);
  }
  EXPECT_GT(most, n);  // AP assignment prices every user at both APs
}

TEST(TickLinks, RssEvalsCountEveryExactEvaluationOfTheTickTables) {
  // Two APs under chaos: AP assignment, interference screening, the unicast
  // and fallback designs, the group designs and the final member pricing
  // all evaluate through the tick tables, and mmwave.rss_evals must count
  // each evaluation. Mitigation is off: its reflection designs price
  // through the designer's own scratch table, which is no tick table.
  const auto matrix = golden_matrix();
  const auto chaos = std::find_if(matrix.begin(), matrix.end(),
                                  [](const GoldenCase& g) {
                                    return g.name == "chaos";
                                  });
  ASSERT_NE(chaos, matrix.end());
  SessionConfig c = chaos->config;
  ASSERT_EQ(c.ap_count, 2u);
  c.enable_blockage_mitigation = false;
  const auto ticks = rows_per_tick(c);
  ASSERT_FALSE(ticks.empty());
  std::size_t evaluations = 0;
  for (std::size_t t = 0; t < ticks.size(); ++t) {
    EXPECT_EQ(ticks[t].counted_evals, ticks[t].table_evals) << "tick " << t;
    evaluations += ticks[t].table_evals;
  }
  EXPECT_GT(evaluations, ticks.size());
}

}  // namespace
}  // namespace volcast::core
