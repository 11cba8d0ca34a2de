// Deterministic overload control: logical load budgets, a brownout state
// machine with hysteresis, and the shed directives each level publishes.
//
// The paper's cross-layer design promises graceful multi-user scaling, but
// a pipeline that always does all the work has only two operating points:
// "fully serve every user" and "miss the 33 ms frame deadline". The
// LoadGovernor adds the missing middle: it tracks per-tick *logical*
// budgets — encode cost, airtime, encode working set — against watermarks
// and drives a green/yellow/orange/red brownout ladder. Each level sheds
// work in a fixed priority order (cap far users' tiers, then skip
// low-saliency cells and defer non-critical tile encodes, then cap every
// user), and recovery is hysteretic: one level per calm streak, never a
// flap per tick.
//
// Everything here is pure data in, pure data out. Loads are logical
// (deltas of the session's deterministic counters), never wall-clock, so a
// session with overload control enabled stays bit-identical at any
// worker_threads / parallel_sessions value — the same contract every other
// stage honors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace volcast::core::overload {

/// Brownout ladder, in escalation order.
enum class BrownoutLevel : std::uint8_t {
  kGreen = 0,   // all work done, nothing shed
  kYellow = 1,  // far users' tiers capped
  kOrange = 2,  // + low-saliency cells skipped, non-critical encodes deferred
  kRed = 3,     // + global tier cap; fleet admission denies new slots
};

/// Sentinel for "no tier cap" in ShedDirectives.
inline constexpr std::size_t kNoTierCap =
    std::numeric_limits<std::size_t>::max();

// --- fixed governor tuning -------------------------------------------------
// Sized for the reduced default content scale (120K points) so `--overload`
// visibly engages under pressure chaos without starving an unloaded
// session.

/// Scheduled-airtime budget per tick as a fraction of the frame interval
/// (1.0 = the full interval; above it the air queue is structurally
/// behind).
inline constexpr double kAirtimeBudget = 1.0;
/// Logical encode working-set budget: the sum of encode bytes over the
/// sliding window below is held against it, standing in for the memory a
/// server would hold encoded tiles in. kMemPressure shrinks this budget.
/// No physical cache backs it; tiling is first-touch accounting.
inline constexpr double kCacheBudgetBytes = 48.0e6;
/// Sliding window (ticks) for the cache working-set sum.
inline constexpr std::size_t kCacheWindowTicks = 30;
/// Utilization at or above which the level escalates to yellow / orange /
/// red. Escalation is immediate and can jump levels.
inline constexpr double kYellowWatermark = 0.70;
inline constexpr double kOrangeWatermark = 0.90;
inline constexpr double kRedWatermark = 1.10;
/// De-escalation is hysteretic: one level down only after
/// OverloadConfig::recover_ticks consecutive ticks with utilization below
/// the current level's entry watermark minus this margin.
inline constexpr double kRecoverMargin = 0.10;
/// Yellow: the farthest ceil(kFarFraction * users) users (ranked by
/// distance from the content center) are capped at kFarTierCap.
inline constexpr double kFarFraction = 0.5;
inline constexpr std::size_t kFarTierCap = 1;
/// Orange: cells whose LOD is at or below kMinLod are skipped in the
/// demand/assembly paths (low-saliency shed), and first-touch tile encodes
/// at or below kDeferLod are deferred to a later tick.
inline constexpr double kMinLod = 0.05;
inline constexpr double kDeferLod = 0.15;
/// Red: every user is capped at this tier.
inline constexpr std::size_t kRedTierCap = 0;

static_assert(kAirtimeBudget > 0.0 && kCacheBudgetBytes > 0.0 &&
              kCacheWindowTicks > 0);
static_assert(0.0 < kYellowWatermark && kYellowWatermark <= kOrangeWatermark &&
              kOrangeWatermark <= kRedWatermark,
              "watermarks must be ordered yellow <= orange <= red");
static_assert(kRecoverMargin >= 0.0);
static_assert(kFarFraction >= 0.0 && kFarFraction <= 1.0);
static_assert(0.0 <= kMinLod && kMinLod <= kDeferLod && kDeferLod < 1.0,
              "LOD floors must satisfy 0 <= min_lod <= defer_lod < 1");

/// The governor knobs a program sets: the master switch, the encode budget
/// (`volcast_sim --overload-encode-budget`) and the recovery streak
/// (`bench_overload`).
struct OverloadConfig {
  /// Master switch consulted by default_policy(kOverload): false keeps the
  /// "off" no-op stage and the session byte-identical to a build without
  /// the overload subsystem.
  bool enabled = false;
  /// Tile-encode bytes the encode lane can absorb per tick.
  double encode_budget_bytes = 4.0e6;
  /// Consecutive calm ticks before the level steps down one rung.
  std::size_t recover_ticks = 8;

  /// Throws std::invalid_argument naming the violated rule.
  void validate() const;
};

/// One tick's logical load sample, assembled by the overload stage from
/// the session's deterministic counters and the fault injector's pressure
/// factors.
struct TickLoad {
  double encode_bytes = 0.0;      // tile bytes encoded this tick
  double airtime_s = 0.0;         // scheduled airtime added this tick
  double tick_interval_s = 1.0;   // 1 / fps
  double cache_window_bytes = 0.0;  // encode bytes over the sliding window
  /// kCpuPressure: >= 1 inflates the logical encode + airtime cost.
  double cpu_factor = 1.0;
  /// kMemPressure: in (0, 1], shrinks the logical working-set budget.
  double mem_factor = 1.0;
};

/// What the current brownout level sheds. Zero-initialized == shed nothing;
/// every consumer's guard reduces to the pre-overload code path then.
struct ShedDirectives {
  /// Number of farthest-from-content users whose tier is capped.
  std::size_t far_user_count = 0;
  std::size_t far_tier_cap = kNoTierCap;
  /// Cells with LOD <= min_lod are dropped from demand and assembly
  /// (0 = keep every visible cell, the exact pre-overload condition).
  double min_lod = 0.0;
  /// First-touch tile encodes with LOD <= defer_lod are postponed
  /// (0 = never defer).
  double defer_lod = 0.0;
  /// Cap applied to every user's tier (kNoTierCap = none).
  std::size_t global_tier_cap = kNoTierCap;

  [[nodiscard]] bool any() const noexcept {
    return far_user_count > 0 || min_lod > 0.0 || defer_lod > 0.0 ||
           global_tier_cap != kNoTierCap;
  }
};

/// Per-session overload accounting, carried into SessionResult. All fields
/// are deterministic (logical budgets only) and stay zero under the "off"
/// policy.
struct OverloadReport {
  std::uint64_t green_ticks = 0;
  std::uint64_t yellow_ticks = 0;
  std::uint64_t orange_ticks = 0;
  std::uint64_t red_ticks = 0;
  /// Brownout level changes (both directions).
  std::uint64_t transitions = 0;
  /// User-ticks whose tier decision was lowered by a shed cap.
  std::uint64_t tier_capped_user_ticks = 0;
  /// Visible cells dropped by the low-saliency floor (counted once per
  /// user-tick in the transport decode path).
  std::uint64_t cells_shed = 0;
  /// First-touch tile encodes postponed under orange/red.
  std::uint64_t deferred_tiles = 0;
  /// Highest utilization the governor observed.
  double peak_utilization = 0.0;
  /// Level at the final tick — green proves recovery after pressure ends.
  std::uint8_t final_level = 0;
};

/// The brownout state machine. observe() is called once per tick with the
/// logical load sample; level() and directives() answer for the tick that
/// sample opened. Pure function of the observed sequence.
class LoadGovernor {
 public:
  explicit LoadGovernor(const OverloadConfig& config);

  /// Folds one tick's load into the state machine and returns the
  /// utilization (max over the encode / airtime / cache ratios).
  double observe(const TickLoad& load);

  [[nodiscard]] BrownoutLevel level() const noexcept { return level_; }
  [[nodiscard]] double utilization() const noexcept { return utilization_; }
  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }

  /// Shed directives of the current level for a `user_count`-user session.
  [[nodiscard]] ShedDirectives directives(std::size_t user_count) const;

 private:
  OverloadConfig config_;
  BrownoutLevel level_ = BrownoutLevel::kGreen;
  double utilization_ = 0.0;
  std::size_t calm_ticks_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace volcast::core::overload
