// Deterministic cross-layer telemetry: spans, events, and a buffered JSONL
// sink.
//
// Design rules (the substrate later multi-AP / sharding PRs instrument):
//  * Disabled means a null `Telemetry*`: every hook degrades to one pointer
//    test, no clock reads, no allocation. SessionResult is bit-identical
//    with telemetry on or off.
//  * Recording (record_span / record_event) is single-threaded: a session
//    runs each tick serially and records in pipeline order. Metric
//    counters and histograms (obs/metrics.h) are relaxed atomics and may
//    be bumped from any thread.
//  * Every record carries a deterministic logical cost (workload-derived,
//    identical across machines and thread counts); wall time is an optional
//    extra field, and the JSONL stream with wall capture off — or with the
//    wall fields stripped — is byte-identical for any worker_threads value.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace volcast::obs {

/// Sentinel for "no id" in Event/SpanRecord user/group/ap fields.
inline constexpr std::uint32_t kNoId = 0xffffffffu;

/// Session tick stages wrapped in spans (one per stage per tick).
enum class Stage : std::uint8_t {
  kPose,      // mobility step + shadowing + body capsules
  kPredict,   // joint viewport prediction (visibility + blockage forecasts)
  kAssign,    // multi-AP user assignment
  kLink,      // per-user unicast link evaluation (beam + RSS + MCS)
  kAdapt,     // rate adaptation decisions
  kMitigate,  // proactive blockage mitigation planning
  kGroup,     // multicast grouping (per AP)
  kBeam,      // multicast beam design (per AP)
  kTile,      // per-user frame assembly from tiles (first-touch counts)
  kSchedule,  // MAC schedule + delivery accounting (per AP)
  kPlayer,    // player advance + health observation
};
[[nodiscard]] const char* to_string(Stage stage) noexcept;

/// Which layer of the cross-layer stack an event belongs to.
enum class Layer : std::uint8_t {
  kSession,
  kGrouping,
  kMmwave,
  kMac,
  kRate,
  kFault,
  kOverload,
};
[[nodiscard]] const char* to_string(Layer layer) noexcept;

/// Event taxonomy across the layers the session instruments.
enum class EventType : std::uint8_t {
  kFaultInjected,       // value = events newly fired this tick
  kApDown,              // ap
  kApUp,                // ap
  kProbeRetry,          // user
  kFallbackStockBeam,   // user
  kFallbackReflection,  // user
  kSlsSweep,            // user
  kReflectionSwitch,    // user
  kTierChange,          // user, value = new tier
  kPrefetch,            // user
  kOutage,              // user (no delivery path this tick)
  kDroppedTick,         // ap (air queue over budget)
  kGroupFormed,         // ap, group index, value = member count
  kFecRecovery,         // user, value = tiles FEC rebuilt this train
  kRetransmit,          // user, value = packets retransmitted this train
  kDeadlineMiss,        // user, value = tiles past the frame deadline
  kBrownoutShift,       // value = new brownout level (0 green .. 3 red)
  kOverloadShed,        // value = work units shed this tick
};
[[nodiscard]] const char* to_string(EventType type) noexcept;
/// The layer every event of `type` belongs to (written to JSONL as
/// "layer").
[[nodiscard]] Layer layer_of(EventType type) noexcept;

/// One discrete cross-layer happening at a tick.
struct Event {
  std::uint32_t tick = 0;
  EventType type = EventType::kFaultInjected;
  std::uint32_t user = kNoId;
  std::uint32_t group = kNoId;
  std::uint32_t ap = kNoId;
  double value = 0.0;
  bool has_value = false;
};

/// One completed stage span.
struct SpanRecord {
  std::uint32_t tick = 0;
  Stage stage = Stage::kPose;
  std::uint32_t ap = kNoId;
  /// Deterministic logical-cost proxy (workload units, e.g. users x cells).
  std::uint64_t cost = 0;
  /// Wall time in microseconds; 0 and omitted from JSONL when wall capture
  /// is off.
  double wall_us = 0.0;
};

struct TelemetryOptions {
  /// Record wall-clock span durations. Off = byte-identical JSONL streams
  /// across runs, machines and thread counts.
  bool capture_wall_time = true;
};

/// Identity of the run, written as the first JSONL record. Deliberately
/// excludes worker_threads: the stream must not depend on it.
struct SessionMeta {
  std::uint32_t users = 0;
  std::uint32_t aps = 0;
  double fps = 0.0;
  double duration_s = 0.0;
  std::uint64_t seed = 0;
};

/// The buffered sink: owns the metric registry and the ordered span/event
/// log; flushed to JSONL at session end.
class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {});

  [[nodiscard]] MetricRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] bool capture_wall_time() const noexcept {
    return options_.capture_wall_time;
  }

  void begin_session(const SessionMeta& meta);

  /// Single-threaded recording (see file comment).
  void record_span(const SpanRecord& span);
  void record_event(const Event& event);

  [[nodiscard]] std::size_t span_count() const noexcept {
    return span_count_;
  }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return event_count_;
  }
  /// All spans in recording order (copies; test/tool convenience).
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::vector<Event> events() const;

  /// Writes the full log: meta line, then spans/events in recording order,
  /// then the metric snapshot sorted by name. Deterministic byte-for-byte
  /// when wall capture is off.
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] std::string to_jsonl() const;

 private:
  struct Record {
    bool is_span = false;
    SpanRecord span;
    Event event;
  };

  TelemetryOptions options_;
  MetricRegistry metrics_;
  SessionMeta meta_;
  bool has_meta_ = false;
  std::vector<Record> records_;
  std::size_t span_count_ = 0;
  std::size_t event_count_ = 0;
};

/// RAII stage timer. A null sink makes construction and destruction free
/// (no clock read). Costs accumulate via add_cost; end() records exactly
/// once (the destructor records if end() was never called).
class Span {
 public:
  Span(Telemetry* sink, Stage stage, std::uint32_t tick,
       std::uint32_t ap = kNoId) noexcept
      : sink_(sink), stage_(stage), tick_(tick), ap_(ap) {
    if (sink_ != nullptr && sink_->capture_wall_time())
      start_ = std::chrono::steady_clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  void add_cost(std::uint64_t cost) noexcept { cost_ += cost; }

  /// Records the span (idempotent; later add_cost calls are ignored).
  void end() noexcept {
    if (sink_ == nullptr || ended_) return;
    ended_ = true;
    SpanRecord record;
    record.tick = tick_;
    record.stage = stage_;
    record.ap = ap_;
    record.cost = cost_;
    if (sink_->capture_wall_time()) {
      record.wall_us = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    }
    sink_->record_span(record);
  }

 private:
  Telemetry* sink_;
  Stage stage_;
  std::uint32_t tick_;
  std::uint32_t ap_;
  std::uint64_t cost_ = 0;
  bool ended_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace volcast::obs
