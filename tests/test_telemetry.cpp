// Unit tests for the obs telemetry substrate: metric primitives, the
// registry, RAII spans, the buffered JSONL sink, and the JSONL reader —
// every piece the session-level determinism tests build on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace volcast::obs {
namespace {

// --- metric primitives -----------------------------------------------------

TEST(ObsMetrics, CounterStartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetrics, CounterIsThreadCountInvariant) {
  // Commutativity is the whole point: the total must not depend on how
  // increments interleave.
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10'000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40'000u);
}

TEST(ObsMetrics, GaugeIsLastWrite) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(ObsMetrics, HistogramBucketsInclusiveUpperBound) {
  const std::array<double, 3> bounds{1.0, 2.0, 5.0};
  Histogram h(bounds);
  ASSERT_EQ(h.bucket_count(), 4u);
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive)
  h.observe(1.5);   // bucket 1
  h.observe(5.0);   // bucket 2
  h.observe(99.0);  // overflow
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 1u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.bucket_value(3), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_TRUE(std::isinf(h.upper_bound(3)));
  EXPECT_EQ(h.upper_bound(1), 2.0);
}

TEST(ObsMetrics, HistogramPercentileIsBucketUpperBound) {
  const std::array<double, 3> bounds{1.0, 2.0, 5.0};
  Histogram h(bounds);
  for (int i = 0; i < 90; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(4.0);
  EXPECT_EQ(h.percentile(50), 1.0);
  EXPECT_EQ(h.percentile(99), 5.0);
}

TEST(ObsMetrics, RegistryReturnsStableHandles) {
  MetricRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(registry.counter("x").value(), 7u);
  EXPECT_EQ(registry.counters().size(), 1u);
}

TEST(ObsMetrics, RegistryRejectsConflictingHistogramBounds) {
  MetricRegistry registry;
  const std::array<double, 2> a{1.0, 2.0};
  const std::array<double, 2> b{1.0, 3.0};
  (void)registry.histogram("h", a);
  EXPECT_NO_THROW((void)registry.histogram("h", a));
  EXPECT_THROW((void)registry.histogram("h", b), std::invalid_argument);
}

TEST(ObsMetrics, RegistryIteratesNameSorted) {
  MetricRegistry registry;
  (void)registry.counter("zeta");
  (void)registry.counter("alpha");
  (void)registry.counter("mu");
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mu", "zeta"}));
}

// --- spans and the sink ----------------------------------------------------

TEST(Telemetry, NullSinkSpanIsFree) {
  // Must not crash, record, or read the clock.
  Span span(nullptr, Stage::kPose, 3);
  span.add_cost(100);
  span.end();
}

TEST(Telemetry, SpanRecordsCostAndStage) {
  Telemetry tel({.capture_wall_time = false});
  {
    Span span(&tel, Stage::kBeam, 7, /*ap=*/1);
    span.add_cost(10);
    span.add_cost(5);
  }
  ASSERT_EQ(tel.span_count(), 1u);
  const SpanRecord record = tel.spans().front();
  EXPECT_EQ(record.tick, 7u);
  EXPECT_EQ(record.stage, Stage::kBeam);
  EXPECT_EQ(record.ap, 1u);
  EXPECT_EQ(record.cost, 15u);
  EXPECT_EQ(record.wall_us, 0.0);
}

TEST(Telemetry, SpanEndIsIdempotent) {
  Telemetry tel({.capture_wall_time = false});
  {
    Span span(&tel, Stage::kLink, 0);
    span.end();
    span.end();  // second end and the destructor must not re-record
  }
  EXPECT_EQ(tel.span_count(), 1u);
}

TEST(Telemetry, WallTimeCapturedWhenEnabled) {
  Telemetry tel;  // capture_wall_time defaults to true
  {
    Span span(&tel, Stage::kPlayer, 0);
  }
  EXPECT_GE(tel.spans().front().wall_us, 0.0);
}

TEST(Telemetry, EnumNamesAreStableSchema) {
  // JSONL consumers key on these strings; renames are schema breaks.
  EXPECT_STREQ(to_string(Stage::kPose), "pose");
  EXPECT_STREQ(to_string(Stage::kSchedule), "schedule");
  EXPECT_STREQ(to_string(Layer::kMmwave), "mmwave");
  EXPECT_STREQ(to_string(Layer::kFault), "fault");
  EXPECT_STREQ(to_string(EventType::kFaultInjected), "fault_injected");
  EXPECT_STREQ(to_string(EventType::kGroupFormed), "group_formed");
  EXPECT_STREQ(to_string(EventType::kTierChange), "tier_change");
}

TEST(Telemetry, EventLayerFollowsFromItsType) {
  // One layer per event type: the JSONL "layer" field is derived, so a
  // recording site cannot file an event under the wrong layer.
  EXPECT_EQ(layer_of(EventType::kFaultInjected), Layer::kFault);
  EXPECT_EQ(layer_of(EventType::kApDown), Layer::kFault);
  EXPECT_EQ(layer_of(EventType::kProbeRetry), Layer::kMmwave);
  EXPECT_EQ(layer_of(EventType::kOutage), Layer::kMmwave);
  EXPECT_EQ(layer_of(EventType::kTierChange), Layer::kRate);
  EXPECT_EQ(layer_of(EventType::kPrefetch), Layer::kSession);
  EXPECT_EQ(layer_of(EventType::kGroupFormed), Layer::kGrouping);
  EXPECT_EQ(layer_of(EventType::kDroppedTick), Layer::kMac);
  EXPECT_EQ(layer_of(EventType::kRetransmit), Layer::kMac);
  EXPECT_EQ(layer_of(EventType::kBrownoutShift), Layer::kOverload);
  EXPECT_EQ(layer_of(EventType::kOverloadShed), Layer::kOverload);
}

// --- JSONL round trip ------------------------------------------------------

Telemetry sample_log(bool wall) {
  Telemetry tel({.capture_wall_time = wall});
  SessionMeta meta;
  meta.users = 4;
  meta.aps = 2;
  meta.fps = 30.0;
  meta.duration_s = 8.0;
  meta.seed = 99;
  tel.begin_session(meta);
  {
    Span span(&tel, Stage::kPredict, 0);
    span.add_cost(1234);
  }
  Event e;
  e.tick = 0;
  e.type = EventType::kTierChange;
  e.user = 2;
  e.value = 1.0;
  e.has_value = true;
  tel.record_event(e);
  tel.metrics().counter("mmwave.rss_evals").add(17);
  tel.metrics().gauge("session.buffer_s").set(0.75);
  const std::array<double, 2> bounds{1.0, 2.0};
  tel.metrics().histogram("mac.group_size", bounds).observe(1.5);
  return tel;
}

TEST(Telemetry, JsonlRoundTripsThroughReader) {
  const Telemetry tel = sample_log(/*wall=*/false);
  const auto records = parse_jsonl(tel.to_jsonl());
  ASSERT_EQ(records.size(), 6u);  // meta + span + event + 3 metrics

  EXPECT_EQ(records[0].str("record"), "meta");
  EXPECT_EQ(records[0].uint("users"), 4u);
  EXPECT_EQ(records[0].uint("seed"), 99u);
  EXPECT_EQ(records[0].num("fps"), 30.0);

  EXPECT_EQ(records[1].str("record"), "span");
  EXPECT_EQ(records[1].str("stage"), "predict");
  EXPECT_EQ(records[1].uint("cost"), 1234u);
  EXPECT_FALSE(records[1].has("wall_us"));
  EXPECT_FALSE(records[1].has("ap"));  // kNoId fields are omitted

  EXPECT_EQ(records[2].str("record"), "event");
  EXPECT_EQ(records[2].str("layer"), "rate");
  EXPECT_EQ(records[2].str("type"), "tier_change");
  EXPECT_EQ(records[2].uint("user"), 2u);
  EXPECT_EQ(records[2].num("value"), 1.0);

  // Metric snapshot is name-kind ordered and value-exact.
  EXPECT_EQ(records[3].str("record"), "counter");
  EXPECT_EQ(records[3].str("name"), "mmwave.rss_evals");
  EXPECT_EQ(records[3].uint("value"), 17u);
  EXPECT_EQ(records[4].str("record"), "gauge");
  EXPECT_EQ(records[4].num("value"), 0.75);
  EXPECT_EQ(records[5].str("record"), "histogram");
  EXPECT_EQ(records[5].num_array("bounds"),
            (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(records[5].num_array("counts"),
            (std::vector<double>{0.0, 1.0, 0.0}));
}

TEST(Telemetry, WallTimeFieldPresentOnlyWhenCaptured) {
  const auto with = parse_jsonl(sample_log(true).to_jsonl());
  const auto without = parse_jsonl(sample_log(false).to_jsonl());
  EXPECT_TRUE(with[1].has("wall_us"));
  EXPECT_FALSE(without[1].has("wall_us"));
}

TEST(Telemetry, WallFreeLogIsByteStableAcrossRuns) {
  EXPECT_EQ(sample_log(false).to_jsonl(), sample_log(false).to_jsonl());
}

TEST(Telemetry, WriteJsonlMatchesToJsonl) {
  const Telemetry tel = sample_log(false);
  std::ostringstream out;
  tel.write_jsonl(out);
  EXPECT_EQ(out.str(), tel.to_jsonl());
}

// --- the JSONL reader itself ----------------------------------------------

TEST(Jsonl, ParsesFlatObjects) {
  const JsonRecord r =
      parse_json_line(R"({"record":"span","cost":12,"wall_us":3.5})");
  EXPECT_EQ(r.str("record"), "span");
  EXPECT_EQ(r.uint("cost"), 12u);
  EXPECT_EQ(r.num("wall_us"), 3.5);
  EXPECT_FALSE(r.has("missing"));
  EXPECT_THROW((void)r.raw("missing"), std::runtime_error);
}

TEST(Jsonl, ParsesNumericArrays) {
  const JsonRecord r = parse_json_line(R"({"counts":[1,2,3]})");
  EXPECT_EQ(r.num_array("counts"), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Jsonl, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_json_line("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_json_line(R"({"unterminated":")"),
               std::runtime_error);
  EXPECT_THROW((void)parse_json_line(R"({"a":1)"), std::runtime_error);
}

TEST(Jsonl, SkipsBlankLines) {
  const auto records = parse_jsonl("{\"a\":1}\n\n{\"b\":2}\n");
  EXPECT_EQ(records.size(), 2u);
}

}  // namespace
}  // namespace volcast::obs
