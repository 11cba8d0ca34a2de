#include "core/stages/overload_stage.h"

#include <algorithm>

#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"

namespace volcast::core {

void OverloadStage::run(SessionState& state, TickContext& ctx) {
  if (!brownout_) return;

  // Logical load sample: deltas of the session's monotone counters. The
  // tiling and transport stages run *after* this slot, so the sample
  // covers ticks < ctx.tick — a deterministic one-tick control delay.
  const double encode_bytes = static_cast<double>(state.tiles.encoded_bytes);
  const double airtime_s = state.scheduled_airtime;
  overload::TickLoad load;
  load.encode_bytes = encode_bytes - prev_encode_bytes_;
  load.airtime_s = airtime_s - prev_airtime_s_;
  load.tick_interval_s = state.dt;
  prev_encode_bytes_ = encode_bytes;
  prev_airtime_s_ = airtime_s;

  window_sum_ += load.encode_bytes - window_[window_at_];
  window_[window_at_] = load.encode_bytes;
  window_at_ = (window_at_ + 1) % window_.size();
  load.cache_window_bytes = window_sum_;

  // Resource-pressure chaos inflates the logical costs; the budgets stay
  // logical, so determinism is untouched.
  if (state.has_faults) {
    load.cpu_factor = state.injector.cpu_pressure_factor();
    load.mem_factor = state.injector.mem_pressure_factor();
  }

  const overload::BrownoutLevel before = governor_.level();
  const double utilization = governor_.observe(load);
  const overload::BrownoutLevel level = governor_.level();
  state.shed = governor_.directives(state.user_count());

  overload::OverloadReport& report = state.oreport;
  switch (level) {
    case overload::BrownoutLevel::kGreen: ++report.green_ticks; break;
    case overload::BrownoutLevel::kYellow: ++report.yellow_ticks; break;
    case overload::BrownoutLevel::kOrange: ++report.orange_ticks; break;
    case overload::BrownoutLevel::kRed: ++report.red_ticks; break;
  }
  report.transitions = governor_.transitions();
  report.peak_utilization = std::max(report.peak_utilization, utilization);
  report.final_level = static_cast<std::uint8_t>(level);

  if (state.tel != nullptr) {
    obs::MetricRegistry& metrics = state.tel->metrics();
    metrics.gauge("overload.level").set(static_cast<double>(level));
    metrics.gauge("overload.utilization").set(utilization);
    metrics.counter("overload.ticks").add(1);
    if (level != overload::BrownoutLevel::kGreen)
      metrics.counter("overload.brownout_ticks").add(1);
    if (level != before) {
      obs::Event e;
      e.tick = ctx.tick32;
      e.type = obs::EventType::kBrownoutShift;
      e.value = static_cast<double>(level);
      e.has_value = true;
      state.tel->record_event(e);
    }
  }
}

}  // namespace volcast::core
