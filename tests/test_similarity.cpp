#include "viewport/similarity.h"

#include <gtest/gtest.h>

#include <vector>

#include "visibility_union.h"

namespace volcast::view {
namespace {

VisibilityMap map_with(std::size_t cells,
                       std::initializer_list<vv::CellId> visible) {
  VisibilityMap m(cells);
  for (auto c : visible) m.set(c);
  return m;
}

TEST(Iou, PaperFigure1Example) {
  // Fig. 1: 8 cells; user 1 sees {1,3,5,6,7,8}, user 2 sees {1,2,3,4,5,7}
  // (1-indexed in the paper); IoU = 4/8 = 0.5.
  const auto u1 = map_with(8, {0, 2, 4, 5, 6, 7});
  const auto u2 = map_with(8, {0, 1, 2, 3, 4, 6});
  EXPECT_DOUBLE_EQ(iou(u1, u2), 0.5);
}

TEST(Iou, IdenticalMapsAreOne) {
  const auto m = map_with(10, {1, 2, 3});
  EXPECT_DOUBLE_EQ(iou(m, m), 1.0);
}

TEST(Iou, DisjointMapsAreZero) {
  EXPECT_DOUBLE_EQ(iou(map_with(10, {0, 1}), map_with(10, {5, 6})), 0.0);
}

TEST(Iou, EmptyMapsAreOneByConvention) {
  EXPECT_DOUBLE_EQ(iou(VisibilityMap(10), VisibilityMap(10)), 1.0);
}

TEST(Iou, OneEmptyOneNotIsZero) {
  EXPECT_DOUBLE_EQ(iou(VisibilityMap(10), map_with(10, {3})), 0.0);
}

TEST(Iou, Symmetric) {
  const auto a = map_with(20, {1, 5, 9, 13});
  const auto b = map_with(20, {5, 9, 17});
  EXPECT_DOUBLE_EQ(iou(a, b), iou(b, a));
}

TEST(GroupIou, ThreeUsersIntersectOverUnion) {
  const auto a = map_with(10, {0, 1, 2, 3});
  const auto b = map_with(10, {1, 2, 3, 4});
  const auto c = map_with(10, {2, 3, 4, 5});
  const VisibilityMap* maps[] = {&a, &b, &c};
  // Intersection {2,3}, union {0..5}.
  EXPECT_DOUBLE_EQ(group_iou(maps), 2.0 / 6.0);
}

TEST(GroupIou, MoreUsersNeverIncreaseIou) {
  // Paper Fig. 2b: HM(3) lies below HM(2).
  const auto a = map_with(10, {0, 1, 2, 3, 4});
  const auto b = map_with(10, {1, 2, 3, 4, 5});
  const auto c = map_with(10, {2, 3, 4, 5, 6});
  const VisibilityMap* pair[] = {&a, &b};
  const VisibilityMap* triple[] = {&a, &b, &c};
  EXPECT_GE(group_iou(pair), group_iou(triple));
}

TEST(GroupIou, SingletonIsOne) {
  const auto a = map_with(10, {3, 4});
  const VisibilityMap* one[] = {&a};
  EXPECT_DOUBLE_EQ(group_iou(one), 1.0);
}

TEST(GroupIou, EmptySpanIsOne) {
  EXPECT_DOUBLE_EQ(group_iou({}), 1.0);
}

TEST(Intersection, KeepsMaxLod) {
  VisibilityMap a(5);
  VisibilityMap b(5);
  a.set(1, 0.4);
  b.set(1, 0.9);
  a.set(2, 1.0);  // not in b
  const VisibilityMap* maps[] = {&a, &b};
  VisibilityMap inter;
  intersection(maps, inter);
  EXPECT_TRUE(inter.visible(1));
  EXPECT_NEAR(inter.lod(1), 0.9, 1e-6);
  EXPECT_FALSE(inter.visible(2));
}

TEST(Intersection, EmptyInputGivesEmptyMap) {
  VisibilityMap inter = map_with(8, {2, 5});  // what `out` held before
  intersection({}, inter);
  EXPECT_EQ(inter.cell_count(), 0u);
  EXPECT_EQ(inter.visible_count(), 0u);
}

TEST(UnionOf, CoversAllVisibleCells) {
  VisibilityMap a(5);
  VisibilityMap b(5);
  a.set(0, 0.5);
  b.set(4, 1.0);
  b.set(0, 0.7);
  const std::vector<VisibilityMap> maps{a, b};
  const auto u = union_of(maps);
  EXPECT_TRUE(u.visible(0));
  EXPECT_NEAR(u.lod(0), 0.7, 1e-6);
  EXPECT_TRUE(u.visible(4));
  EXPECT_EQ(u.visible_count(), 2u);
}

TEST(SetOps, IntersectionSubsetOfUnion) {
  VisibilityMap a(30);
  VisibilityMap b(30);
  for (vv::CellId c = 0; c < 30; c += 2) a.set(c);
  for (vv::CellId c = 0; c < 30; c += 3) b.set(c);
  const std::vector<VisibilityMap> maps{a, b};
  const VisibilityMap* ptrs[] = {&a, &b};
  VisibilityMap inter;
  intersection(ptrs, inter);
  const auto uni = union_of(maps);
  for (vv::CellId c = 0; c < 30; ++c) {
    if (inter.visible(c)) {
      EXPECT_TRUE(uni.visible(c));
    }
  }
  // |I| / |U| must equal group_iou.
  EXPECT_DOUBLE_EQ(
      static_cast<double>(inter.visible_count()) /
          static_cast<double>(uni.visible_count()),
      group_iou(ptrs));
}

}  // namespace
}  // namespace volcast::view
