#include "obs/telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace volcast::obs {
namespace {

// Shortest round-trippable formatting: %.17g is exact for IEEE doubles and
// locale-independent via snprintf with the C locale digits (JSONL streams
// must be byte-stable).
std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

void append_id(std::string& out, const char* key, std::uint32_t id) {
  if (id == kNoId) return;
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%u", key, id);
  out += buf;
}

}  // namespace

const char* to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kPose: return "pose";
    case Stage::kPredict: return "predict";
    case Stage::kAssign: return "assign";
    case Stage::kLink: return "link";
    case Stage::kAdapt: return "adapt";
    case Stage::kMitigate: return "mitigate";
    case Stage::kGroup: return "group";
    case Stage::kBeam: return "beam";
    case Stage::kTile: return "tile";
    case Stage::kSchedule: return "schedule";
    case Stage::kPlayer: return "player";
  }
  return "unknown";
}

const char* to_string(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSession: return "session";
    case Layer::kGrouping: return "grouping";
    case Layer::kMmwave: return "mmwave";
    case Layer::kMac: return "mac";
    case Layer::kRate: return "rate";
    case Layer::kFault: return "fault";
    case Layer::kOverload: return "overload";
  }
  return "unknown";
}

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::kFaultInjected: return "fault_injected";
    case EventType::kApDown: return "ap_down";
    case EventType::kApUp: return "ap_up";
    case EventType::kProbeRetry: return "probe_retry";
    case EventType::kFallbackStockBeam: return "fallback_stock_beam";
    case EventType::kFallbackReflection: return "fallback_reflection";
    case EventType::kSlsSweep: return "sls_sweep";
    case EventType::kReflectionSwitch: return "reflection_switch";
    case EventType::kTierChange: return "tier_change";
    case EventType::kPrefetch: return "prefetch";
    case EventType::kOutage: return "outage";
    case EventType::kDroppedTick: return "dropped_tick";
    case EventType::kGroupFormed: return "group_formed";
    case EventType::kFecRecovery: return "fec_recovery";
    case EventType::kRetransmit: return "retransmit";
    case EventType::kDeadlineMiss: return "deadline_miss";
    case EventType::kBrownoutShift: return "brownout_shift";
    case EventType::kOverloadShed: return "overload_shed";
  }
  return "unknown";
}

Layer layer_of(EventType type) noexcept {
  switch (type) {
    case EventType::kFaultInjected:
    case EventType::kApDown:
    case EventType::kApUp:
      return Layer::kFault;
    case EventType::kProbeRetry:
    case EventType::kFallbackStockBeam:
    case EventType::kFallbackReflection:
    case EventType::kSlsSweep:
    case EventType::kReflectionSwitch:
    case EventType::kOutage:
      return Layer::kMmwave;
    case EventType::kTierChange:
      return Layer::kRate;
    case EventType::kPrefetch:
      return Layer::kSession;
    case EventType::kGroupFormed:
      return Layer::kGrouping;
    case EventType::kDroppedTick:
    case EventType::kFecRecovery:
    case EventType::kRetransmit:
    case EventType::kDeadlineMiss:
      return Layer::kMac;
    case EventType::kBrownoutShift:
    case EventType::kOverloadShed:
      return Layer::kOverload;
  }
  return Layer::kSession;
}

Telemetry::Telemetry(TelemetryOptions options) : options_(options) {}

void Telemetry::begin_session(const SessionMeta& meta) {
  meta_ = meta;
  has_meta_ = true;
}

void Telemetry::record_span(const SpanRecord& span) {
  Record record;
  record.is_span = true;
  record.span = span;
  records_.push_back(record);
  ++span_count_;
}

void Telemetry::record_event(const Event& event) {
  Record record;
  record.is_span = false;
  record.event = event;
  records_.push_back(record);
  ++event_count_;
}

std::vector<SpanRecord> Telemetry::spans() const {
  std::vector<SpanRecord> out;
  out.reserve(span_count_);
  for (const Record& record : records_)
    if (record.is_span) out.push_back(record.span);
  return out;
}

std::vector<Event> Telemetry::events() const {
  std::vector<Event> out;
  out.reserve(event_count_);
  for (const Record& record : records_)
    if (!record.is_span) out.push_back(record.event);
  return out;
}

void Telemetry::write_jsonl(std::ostream& out) const {
  std::string line;
  if (has_meta_) {
    line = "{\"record\":\"meta\",\"users\":";
    line += std::to_string(meta_.users);
    line += ",\"aps\":";
    line += std::to_string(meta_.aps);
    line += ",\"fps\":";
    line += format_double(meta_.fps);
    line += ",\"duration_s\":";
    line += format_double(meta_.duration_s);
    line += ",\"seed\":";
    line += std::to_string(meta_.seed);
    line += "}\n";
    out << line;
  }
  for (const Record& record : records_) {
    line.clear();
    if (record.is_span) {
      const SpanRecord& span = record.span;
      line = "{\"record\":\"span\",\"tick\":";
      line += std::to_string(span.tick);
      line += ",\"stage\":\"";
      line += to_string(span.stage);
      line += '"';
      append_id(line, "ap", span.ap);
      line += ",\"cost\":";
      line += std::to_string(span.cost);
      if (options_.capture_wall_time) {
        line += ",\"wall_us\":";
        line += format_double(span.wall_us);
      }
      line += "}\n";
    } else {
      const Event& event = record.event;
      line = "{\"record\":\"event\",\"tick\":";
      line += std::to_string(event.tick);
      line += ",\"layer\":\"";
      line += to_string(layer_of(event.type));
      line += "\",\"type\":\"";
      line += to_string(event.type);
      line += '"';
      append_id(line, "user", event.user);
      append_id(line, "group", event.group);
      append_id(line, "ap", event.ap);
      if (event.has_value) {
        line += ",\"value\":";
        line += format_double(event.value);
      }
      line += "}\n";
    }
    out << line;
  }
  for (const auto& [name, counter] : metrics_.counters()) {
    out << "{\"record\":\"counter\",\"name\":\"" << name
        << "\",\"value\":" << counter->value() << "}\n";
  }
  for (const auto& [name, gauge] : metrics_.gauges()) {
    out << "{\"record\":\"gauge\",\"name\":\"" << name
        << "\",\"value\":" << format_double(gauge->value()) << "}\n";
  }
  for (const auto& [name, hist] : metrics_.histograms()) {
    line = "{\"record\":\"histogram\",\"name\":\"";
    line += name;
    line += "\",\"bounds\":[";
    for (std::size_t i = 0; i < hist->bounds().size(); ++i) {
      if (i > 0) line += ',';
      line += format_double(hist->bounds()[i]);
    }
    line += "],\"counts\":[";
    for (std::size_t i = 0; i < hist->bucket_count(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(hist->bucket_value(i));
    }
    line += "]}\n";
    out << line;
  }
}

std::string Telemetry::to_jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

}  // namespace volcast::obs
