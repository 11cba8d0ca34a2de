// Beam explorer: a terminal visualization of the paper's Fig. 3c idea —
// what the stock sector codebook radiates vs. the customized two-lobe beam
// for a concrete pair of users. Prints azimuth gain cuts as ASCII art plus
// the per-user link budget under each beam.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/units.h"
#include "core/testbed.h"
#include "mmwave/beam_design.h"
#include "mmwave/link.h"

using namespace volcast;

namespace {

/// Renders an azimuth gain cut (elevation of the user ring) as bars.
void print_cut(const core::Testbed& testbed, const mmwave::Awv& beam,
               const char* title) {
  std::printf("%s\n", title);
  const auto& ap = testbed.ap();
  for (double az_deg = -60; az_deg <= 60; az_deg += 5) {
    const double az = az_deg * std::numbers::pi / 180.0;
    // Direction in the AP's local frame at a slight downward tilt,
    // rotated into the world.
    const geo::Vec3 local{std::cos(az), std::sin(az), -0.25};
    const geo::Pose& pose = ap.pose();
    const geo::Vec3 world = (pose.forward() * local.x +
                             pose.left() * local.y + pose.up() * local.z)
                                .normalized();
    const double dbi = ap.gain_dbi(beam, world);
    const int bars = std::max(0, static_cast<int>((dbi + 10.0) / 1.5));
    std::printf("%+4.0f deg %6.1f dBi |%s\n", az_deg, dbi,
                std::string(static_cast<std::size_t>(bars), '#').c_str());
  }
}

}  // namespace

int main() {
  core::Testbed testbed;
  // Two users on opposite sides of the content — the configuration where
  // the default codebook collapses (Fig. 3b) and two lobes win (Fig. 3d).
  const geo::Vec3 user1 = testbed.to_room({-1.8, -1.2, 1.5});
  const geo::Vec3 user2 = testbed.to_room({1.8, -1.0, 1.5});

  std::printf("=== Beam explorer: serving two separated users ===\n");
  std::printf("user1 at (%.1f, %.1f), user2 at (%.1f, %.1f), AP on the "
              "front wall\n\n",
              user1.x, user1.y, user2.x, user2.y);

  const geo::Vec3 group[] = {user1, user2};
  const auto stock = testbed.codebook().beam(
      testbed.codebook().best_common_beam(testbed.ap(), group));

  const mmwave::Awv b1 = testbed.ap().steer_at(user1);
  const mmwave::Awv b2 = testbed.ap().steer_at(user2);
  const double r1 = mmwave::rss_dbm(testbed.ap(), b1, testbed.channel(),
                                    user1, {}, testbed.budget());
  const double r2 = mmwave::rss_dbm(testbed.ap(), b2, testbed.channel(),
                                    user2, {}, testbed.budget());
  const mmwave::Awv* beams[] = {&b1, &b2};
  const double rss_mw[] = {dbm_to_mw(r1), dbm_to_mw(r2)};
  mmwave::Awv custom;
  mmwave::combine_awvs(beams, rss_mw, custom);

  print_cut(testbed, stock, "stock common sector (one main lobe):");
  std::printf("\n");
  print_cut(testbed, custom,
            "customized beam (two lobes, RSS-weighted combination):");

  auto link = [&](const mmwave::Awv& beam, const geo::Vec3& user) {
    const double rss = mmwave::rss_dbm(testbed.ap(), beam, testbed.channel(),
                                       user, {}, testbed.budget());
    const auto mcs = testbed.mcs().select(rss);
    std::printf("  RSS %.1f dBm -> MCS %d, %.0f Mbps PHY\n", rss, mcs.index,
                mcs.phy_rate_mbps);
  };
  std::printf("\nlink budget under the stock common sector:\n");
  link(stock, user1);
  link(stock, user2);
  std::printf("link budget under the customized two-lobe beam:\n");
  link(custom, user1);
  link(custom, user2);

  std::printf("\nmulticast rate = min over members; the customized beam "
              "lifts exactly that minimum (paper Sec 4.2).\n");
  return 0;
}
