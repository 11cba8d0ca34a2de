#include "core/overload/governor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace volcast::core::overload {

void OverloadConfig::validate() const {
  if (!(encode_budget_bytes > 0.0))
    throw std::invalid_argument(
        "OverloadConfig: encode_budget_bytes must be > 0");
  if (recover_ticks == 0)
    throw std::invalid_argument("OverloadConfig: recover_ticks must be > 0");
}

namespace {

double entry_watermark(BrownoutLevel level) noexcept {
  switch (level) {
    case BrownoutLevel::kYellow: return kYellowWatermark;
    case BrownoutLevel::kOrange: return kOrangeWatermark;
    case BrownoutLevel::kRed: return kRedWatermark;
    case BrownoutLevel::kGreen: break;
  }
  return 0.0;
}

}  // namespace

LoadGovernor::LoadGovernor(const OverloadConfig& config) : config_(config) {}

double LoadGovernor::observe(const TickLoad& load) {
  const double cpu = std::max(load.cpu_factor, 1.0);
  const double mem = std::clamp(load.mem_factor, 1e-6, 1.0);
  const double interval = std::max(load.tick_interval_s, 1e-9);

  const double encode_util =
      load.encode_bytes * cpu / config_.encode_budget_bytes;
  const double airtime_util =
      load.airtime_s * cpu / (kAirtimeBudget * interval);
  const double cache_util =
      load.cache_window_bytes / (kCacheBudgetBytes * mem);
  utilization_ = std::max({encode_util, airtime_util, cache_util});

  BrownoutLevel target = BrownoutLevel::kGreen;
  if (utilization_ >= kRedWatermark) {
    target = BrownoutLevel::kRed;
  } else if (utilization_ >= kOrangeWatermark) {
    target = BrownoutLevel::kOrange;
  } else if (utilization_ >= kYellowWatermark) {
    target = BrownoutLevel::kYellow;
  }

  if (target > level_) {
    // Escalation is immediate (and may jump levels): shedding late is the
    // failure mode the governor exists to prevent.
    level_ = target;
    calm_ticks_ = 0;
    ++transitions_;
  } else if (target < level_ && level_ != BrownoutLevel::kGreen) {
    // De-escalation is hysteretic: one level per calm streak, and only
    // when utilization sits clearly below the current level's entry
    // watermark — a load hovering at the boundary must not flap.
    if (utilization_ < entry_watermark(level_) - kRecoverMargin) {
      if (++calm_ticks_ >= config_.recover_ticks) {
        level_ = static_cast<BrownoutLevel>(
            static_cast<std::uint8_t>(level_) - 1);
        ++transitions_;
        calm_ticks_ = 0;
      }
    } else {
      calm_ticks_ = 0;
    }
  } else {
    calm_ticks_ = 0;
  }
  return utilization_;
}

ShedDirectives LoadGovernor::directives(std::size_t user_count) const {
  ShedDirectives shed;
  if (level_ == BrownoutLevel::kGreen) return shed;
  // Fixed priority order: yellow caps the far half of the audience, orange
  // additionally sheds low-saliency cells and defers non-critical encodes,
  // red caps everyone. Higher levels always include the lower levels'
  // sheds, so degradation is monotone in the level.
  shed.far_user_count = static_cast<std::size_t>(std::ceil(
      kFarFraction * static_cast<double>(user_count)));
  shed.far_user_count = std::min(shed.far_user_count, user_count);
  shed.far_tier_cap = kFarTierCap;
  if (level_ >= BrownoutLevel::kOrange) {
    shed.min_lod = kMinLod;
    shed.defer_lod = kDeferLod;
  }
  if (level_ >= BrownoutLevel::kRed)
    shed.global_tier_cap = kRedTierCap;
  return shed;
}

}  // namespace volcast::core::overload
