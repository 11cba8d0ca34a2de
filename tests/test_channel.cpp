#include "mmwave/channel.h"

#include <gtest/gtest.h>

#include <cmath>

namespace volcast::mmwave {
namespace {

Channel room_channel() { return Channel(Room{}); }

TEST(Channel, FsplAt60GHzKnownValues) {
  const auto ch = room_channel();
  // FSPL(1 m, 60.48 GHz) = 20 log10(4 pi / lambda) with lambda ~4.96 mm.
  EXPECT_NEAR(ch.fspl_db(1.0), 68.1, 0.2);
  // +6 dB per doubling.
  EXPECT_NEAR(ch.fspl_db(2.0) - ch.fspl_db(1.0), 6.02, 0.01);
  EXPECT_NEAR(ch.fspl_db(4.0) - ch.fspl_db(2.0), 6.02, 0.01);
}

TEST(Channel, FsplClampsTinyDistances) {
  const auto ch = room_channel();
  EXPECT_DOUBLE_EQ(ch.fspl_db(0.0), ch.fspl_db(0.01));
}

TEST(Channel, LosPathIsFirstAndCorrect) {
  const auto ch = room_channel();
  const geo::Vec3 tx{1, 1, 2.5};
  const geo::Vec3 rx{5, 4, 1.5};
  const auto paths = ch.paths(tx, rx);
  ASSERT_FALSE(paths.empty());
  const Path& los = paths.front();
  EXPECT_TRUE(los.line_of_sight);
  EXPECT_NEAR(los.length_m, tx.distance(rx), 1e-12);
  EXPECT_NEAR(los.tx_direction.dot((rx - tx).normalized()), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(los.extra_loss_db, 0.0);
}

TEST(Channel, FirstOrderReflectionsExist) {
  const auto ch = room_channel();
  const auto paths = ch.paths({1, 1, 1.5}, {6, 4, 1.5});
  // Interior points see bounces off most of the six surfaces.
  EXPECT_GE(paths.size(), 5u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_FALSE(paths[i].line_of_sight);
    EXPECT_GE(paths[i].extra_loss_db, Room{}.reflection_loss_db);
    EXPECT_GT(paths[i].length_m, paths.front().length_m);
  }
}

TEST(Channel, ReflectionGeometryIsSpecular) {
  const Room room{};
  const Channel ch(room);
  const geo::Vec3 tx{2, 1, 1.5};
  const geo::Vec3 rx{6, 1, 1.5};
  for (const Path& p : ch.paths(tx, rx)) {
    if (p.line_of_sight) continue;
    // Bounce point lies on a room face.
    const geo::Vec3& b = p.bounce_point;
    const bool on_face =
        std::abs(b.x) < 1e-6 || std::abs(b.x - room.width_m) < 1e-6 ||
        std::abs(b.y) < 1e-6 || std::abs(b.y - room.length_m) < 1e-6 ||
        std::abs(b.z) < 1e-6 || std::abs(b.z - room.height_m) < 1e-6;
    EXPECT_TRUE(on_face);
    // Path length = |tx-b| + |b-rx| (image construction).
    EXPECT_NEAR(p.length_m, tx.distance(b) + b.distance(rx), 1e-9);
  }
}

TEST(Channel, ReflectionsCanBeDisabled) {
  Room room;
  room.enable_reflections = false;
  const Channel ch(room);
  EXPECT_EQ(ch.paths({1, 1, 1.5}, {5, 4, 1.5}).size(), 1u);
}

TEST(Channel, BodyBlockageAttenuatesLos) {
  const auto ch = room_channel();
  const geo::Vec3 tx{1, 3, 2.0};
  const geo::Vec3 rx{7, 3, 1.5};
  const geo::BodyObstacle body{{4, 3, 0}, 0.25, 1.8};
  const std::vector<geo::BodyObstacle> bodies{body};
  const auto paths = ch.paths(tx, rx, bodies);
  EXPECT_GT(paths.front().extra_loss_db, 10.0);
}

TEST(Channel, ReflectionRoutesAroundBlocker) {
  // The mitigation premise: some bounce path avoids the body entirely.
  const auto ch = room_channel();
  const geo::Vec3 tx{1, 3, 2.0};
  const geo::Vec3 rx{7, 3, 1.5};
  const geo::BodyObstacle body{{4, 3, 0}, 0.25, 1.8};
  const std::vector<geo::BodyObstacle> bodies{body};
  const auto paths = ch.paths(tx, rx, bodies);
  bool clean_bounce = false;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    if (paths[i].extra_loss_db <= Room{}.reflection_loss_db + 1e-9)
      clean_bounce = true;
  }
  EXPECT_TRUE(clean_bounce);
}

TEST(BlockageModel, DeadCenterFullLoss) {
  const BlockageModel model;
  const geo::BodyObstacle body{{5, 0, 0}, 0.25, 1.8};
  EXPECT_NEAR(model.segment_loss_db({0, 0, 1}, {10, 0, 1}, body),
              model.max_loss_db, 1e-9);
}

TEST(BlockageModel, PartialDegradationLevels) {
  // Paper Section 5: blockage does not always cause outage — the loss
  // ramps with how deeply the body cuts the path.
  const BlockageModel model;
  double last = model.max_loss_db + 1.0;
  for (double offset = 0.0; offset <= 0.4; offset += 0.05) {
    const geo::BodyObstacle body{{5, offset, 0}, 0.25, 1.8};
    const double loss = model.segment_loss_db({0, 0, 1}, {10, 0, 1}, body);
    EXPECT_LE(loss, last + 1e-12);
    last = loss;
  }
  // Beyond the clearance radius: zero.
  const geo::BodyObstacle far_body{{5, 1.0, 0}, 0.25, 1.8};
  EXPECT_DOUBLE_EQ(model.segment_loss_db({0, 0, 1}, {10, 0, 1}, far_body),
                   0.0);
}

TEST(BlockageModel, MultipleBodiesAddInDb) {
  const BlockageModel model;
  const geo::BodyObstacle a{{3, 0, 0}, 0.25, 1.8};
  const geo::BodyObstacle b{{7, 0, 0}, 0.25, 1.8};
  const std::vector<geo::BodyObstacle> both{a, b};
  const double la = model.segment_loss_db({0, 0, 1}, {10, 0, 1}, a);
  const double lb = model.segment_loss_db({0, 0, 1}, {10, 0, 1}, b);
  EXPECT_NEAR(model.segment_loss_db({0, 0, 1}, {10, 0, 1}, both), la + lb,
              1e-9);
}


TEST(Channel, SecondOrderReflectionsOptIn) {
  Room room;
  const Channel first(room);
  room.max_reflection_order = 2;
  const Channel second(room);
  const geo::Vec3 tx{1, 1, 2.0};
  const geo::Vec3 rx{6, 4, 1.5};
  const auto p1 = first.paths(tx, rx);
  const auto p2 = second.paths(tx, rx);
  EXPECT_GT(p2.size(), p1.size());
  bool has_double = false;
  for (const Path& p : p2)
    if (p.bounces == 2) has_double = true;
  EXPECT_TRUE(has_double);
}

TEST(Channel, DoubleBouncesCarryTwoReflectionLosses) {
  Room room;
  room.max_reflection_order = 2;
  const Channel ch(room);
  for (const Path& p : ch.paths({1, 1, 2.0}, {6, 4, 1.5})) {
    if (p.bounces == 2) {
      EXPECT_GE(p.extra_loss_db, 2.0 * room.reflection_loss_db - 1e-9);
    }
    if (p.bounces == 1) {
      EXPECT_GE(p.extra_loss_db, room.reflection_loss_db - 1e-9);
    }
  }
}

TEST(Channel, DoubleBouncesLongerThanSingle) {
  Room room;
  room.max_reflection_order = 2;
  const Channel ch(room);
  const geo::Vec3 tx{1, 1, 2.0};
  const geo::Vec3 rx{6, 4, 1.5};
  double min_double = 1e18;
  double min_single = 1e18;
  for (const Path& p : ch.paths(tx, rx)) {
    if (p.bounces == 2) min_double = std::min(min_double, p.length_m);
    if (p.bounces == 1) min_single = std::min(min_single, p.length_m);
  }
  EXPECT_GT(min_double, tx.distance(rx));
  EXPECT_GT(min_single, tx.distance(rx));
}

TEST(Channel, BouncesFieldConsistentWithLoS) {
  Room room;
  room.max_reflection_order = 2;
  const Channel ch(room);
  for (const Path& p : ch.paths({2, 2, 1.5}, {5, 4, 1.5})) {
    EXPECT_EQ(p.line_of_sight, p.bounces == 0);
  }
}

class ChannelDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelDistanceSweep, LosAlwaysShortestPath) {
  const auto ch = room_channel();
  const geo::Vec3 tx{0.5, 0.5, 2.5};
  const geo::Vec3 rx{0.5 + GetParam(), 3.0, 1.5};
  const auto paths = ch.paths(tx, rx);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_GE(paths[i].length_m, paths.front().length_m);
}

INSTANTIATE_TEST_SUITE_P(Distances, ChannelDistanceSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 6.0));

}  // namespace
}  // namespace volcast::mmwave
