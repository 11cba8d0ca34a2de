// Beam selection for unicast links and multicast groups (paper Section 4.2).
//
// For a unicast user: the best stock sector (SLS outcome) — or, when custom
// beams are allowed, a full-aperture steered beam from the predicted 6DoF
// position ("we can use the predicted 6DoF motion information at the server
// to select the individual beams ... without beam searching").
//
// For a multicast group: synthesize the paper's RSS-weighted multi-lobe
// beam from the members' individual beams, probe it (Section 5: reflections
// can make a new beam interfere), and fall back to the best stock common
// sector when that already serves everyone well or the probe fails.
//
// Every design prices its links through a link table of the designer's AP:
// a session's tick table (tick_links), or link_table() toward the caller's
// receivers. design_reflection alone keeps a position overload, for the
// blockage mitigator.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/testbed.h"
#include "mmwave/beam_design.h"
#include "mmwave/link.h"

namespace volcast::obs {
class Counter;
class MetricRegistry;
}  // namespace volcast::obs

namespace volcast::core {

/// Designer options.
struct BeamDesignerConfig {
  /// Allow synthesized (non-codebook) beams at all.
  bool enable_custom_beams = true;
  /// "When both users have high RSS [under the stock beam], directly use
  /// the default common beam": threshold for that fast path (-64 dBm still
  /// supports MCS 4, > 1.1 Gbps PHY).
  double default_beam_good_dbm = -64.0;
  /// Probe rejection: the custom beam must not leak more than this RSS to
  /// any non-member (interference screening).
  double max_spill_dbm = -55.0;
  /// Probe rejection: the custom beam must beat the stock common beam's
  /// worst member by at least this margin.
  double min_improvement_db = 0.5;
  /// Optional telemetry sink: design counts and custom/stock/probe-reject
  /// outcomes are recorded as counters (design decisions are unaffected).
  /// The registry must outlive the designer.
  obs::MetricRegistry* metrics = nullptr;
};

/// Outcome of designing one group beam.
struct GroupBeam {
  mmwave::Awv awv;            // the beam to transmit with
  bool custom = false;        // synthesized vs stock sector
  /// The name the designing link table memoized this beam's member prices
  /// under (LinkTable::named_rss), so that a later price of it in that
  /// table can be reused: the sector index for a stock beam, a
  /// LinkTable::name_beam() name for a synthesized multicast beam. Empty
  /// for a steered unicast beam and a reflection beam.
  std::optional<std::size_t> priced_as;
  /// The weakest member's RSS under the design's body mask, priced by the
  /// design's link table.
  double min_member_rss_dbm = -200.0;
  double multicast_rate_mbps = 0.0;  // lowest common MCS PHY rate * MAC eff
};

/// Designer bound to a testbed. Its designs depend on their arguments
/// alone; the designer only keeps scratch storage that its designs reuse,
/// so one designer must not design from two threads at once.
class BeamDesigner {
 public:
  BeamDesigner(const Testbed& testbed, BeamDesignerConfig config = {});

  /// Writes the unicast beam + achievable goodput toward receiver `rx` of
  /// a link table of this designer's AP, shadowed by the bodies
  /// `body_mask` selects from the table's body list, into `out`, reusing
  /// the storage of its AWV: the steered beam is links.steered(rx), the
  /// stock sector is picked from the row's cached sector gains. Throws
  /// std::invalid_argument for a table built for another array.
  void design_unicast(mmwave::LinkTable& links, std::size_t rx,
                      std::span<const std::uint8_t> body_mask,
                      GroupBeam& out) const;

  /// Writes the multicast beam over a link table of this designer's AP
  /// into `out`, reusing the storage of its AWV: `members` (>= 1) and
  /// `others` index the table's receivers, and `body_mask` selects the
  /// shadowing bodies from its body list. `others` are the non-members the
  /// custom beam is spill-probed against. The stock common sector is
  /// picked from the members' cached sector gains; the members' steered
  /// beams are combined where the table keeps them, not copied. Throws
  /// std::invalid_argument for an empty group or a table built for another
  /// array.
  void design_multicast(mmwave::LinkTable& links,
                        std::span<const std::size_t> members,
                        std::span<const std::uint8_t> body_mask,
                        std::span<const std::size_t> others,
                        GroupBeam& out) const;

  /// A link table from this designer's AP toward `receivers`, with
  /// `bodies` as the shadowing body list (both referenced, not copied) and
  /// the AP's codebook bound for the sector picks, bumping `counters`.
  [[nodiscard]] mmwave::LinkTable link_table(
      std::span<const geo::Vec3> receivers,
      std::span<const geo::BodyObstacle> bodies,
      mmwave::LinkCounters counters = {}) const;

  /// A reflection beam for blockage mitigation: steers at the strongest
  /// non-line-of-sight bounce toward `position` (empty AWV when the room
  /// offers no reflection). Prices its candidates through the designer's
  /// one scratch link_table(), rebound to `position` and `bodies` on every
  /// call.
  [[nodiscard]] GroupBeam design_reflection(
      const geo::Vec3& position,
      std::span<const geo::BodyObstacle> bodies = {}) const;

  /// The same design toward receiver `rx` of a link table of this
  /// designer's AP: each candidate is PhasedArray::steer of one traced
  /// path's cached response, priced as a masked sum over the same row (the
  /// overload above is this one over its one-shot table). Throws
  /// std::invalid_argument for a table built for another array.
  [[nodiscard]] GroupBeam design_reflection(
      mmwave::LinkTable& links, std::size_t rx,
      std::span<const std::uint8_t> body_mask) const;

  [[nodiscard]] const BeamDesignerConfig& config() const noexcept {
    return config_;
  }

 private:
  const Testbed* testbed_;
  BeamDesignerConfig config_;
  // Telemetry handles (null when config_.metrics is null).
  obs::Counter* unicast_designs_ = nullptr;
  obs::Counter* multicast_designs_ = nullptr;
  obs::Counter* reflection_designs_ = nullptr;
  obs::Counter* custom_selected_ = nullptr;
  obs::Counter* stock_selected_ = nullptr;
  obs::Counter* probe_rejects_ = nullptr;
  obs::Counter* rss_evals_ = nullptr;

  /// Storage the designs reuse from call to call.
  struct Scratch {
    // design_multicast: the members' steered beams and own RSS in mW.
    std::vector<const mmwave::Awv*> member_beams;
    std::vector<double> member_rss_mw;
    // design_reflection(position, bodies): the one receiver, the
    // every-body mask and the table, rebound per call.
    std::array<geo::Vec3, 1> receiver{};
    std::vector<std::uint8_t> every_body;
    std::optional<mmwave::LinkTable> reflection_table;
  };
  mutable Scratch scratch_;

  /// Throws std::invalid_argument naming `who` unless `links` prices
  /// this designer's AP.
  void require_own_table(const mmwave::LinkTable& links,
                         const char* who) const;
  /// Completes `beam` (awv, custom and priced_as set) from the weakest of
  /// `members` links, link i priced by `member_rss(i)`.
  template <typename MemberRss>
  void finish(GroupBeam& beam, std::size_t members,
              MemberRss&& member_rss) const;
  /// The stock beam of sector `sector`, priced over `members` through the
  /// row memos of `links`, written into `out`.
  void stock_beam(mmwave::LinkTable& links, std::size_t sector,
                  std::span<const std::size_t> members,
                  std::span<const std::uint8_t> body_mask,
                  GroupBeam& out) const;
};

}  // namespace volcast::core
