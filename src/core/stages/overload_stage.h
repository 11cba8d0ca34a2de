// Overload pipeline slot: samples the session's logical load, steps the
// brownout governor, and publishes the shed directives downstream stages
// consume this tick.
//
// Two policies fill the slot:
//   "off"      — a strict no-op. SessionState::shed stays zero-initialized
//                and every consumer's guard reduces to the pre-overload
//                code path, so results (and the goldens) are byte-identical
//                to a build without the overload subsystem.
//   "brownout" — the LoadGovernor (core/overload/governor.h). The load
//                sample is pure deltas of the session's deterministic
//                counters (tile encode bytes, scheduled airtime) plus the
//                fault injector's kCpuPressure / kMemPressure factors —
//                never wall clock — so the session stays bit-identical at
//                any worker_threads value with overload control on.
//
// The slot runs first in the pipeline: directives published at tick t are
// computed from the loads of ticks < t (a one-tick control delay, the
// deterministic analogue of a real controller's sampling latency).
#pragma once

#include <array>
#include <string_view>

#include "core/overload/governor.h"
#include "core/stages/stage.h"

namespace volcast::core {

class OverloadStage final : public Stage {
 public:
  /// "off" policy.
  OverloadStage() : brownout_(false), governor_(overload::OverloadConfig{}) {}
  /// "brownout" policy driving the given governor config.
  explicit OverloadStage(const overload::OverloadConfig& config)
      : brownout_(true), governor_(config) {}

  [[nodiscard]] StageKind kind() const noexcept override {
    return StageKind::kOverload;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return brownout_ ? "brownout" : "off";
  }

  void run(SessionState& state, TickContext& ctx) override;

 private:
  bool brownout_;
  overload::LoadGovernor governor_;
  // Last-seen values of the monotone session counters the load sample
  // differentiates.
  double prev_encode_bytes_ = 0.0;
  double prev_airtime_s_ = 0.0;
  // Sliding window over per-tick encode bytes for the logical cache
  // working-set (ring buffer + running sum).
  std::array<double, overload::kCacheWindowTicks> window_{};
  std::size_t window_at_ = 0;
  double window_sum_ = 0.0;
};

}  // namespace volcast::core
