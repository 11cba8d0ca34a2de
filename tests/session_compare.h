// Shared bit-exact SessionResult comparison for determinism tests: the
// worker-thread contract and the telemetry subsystem both promise
// bit-identical outcomes (any thread count, telemetry on or off), so their
// tests assert through the same comparator.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/fleet.h"
#include "core/session.h"
#include "session_golden.h"

namespace volcast::core {

// Bit-exact double comparison: 2.0 * 0.5 == 1.0 is not enough, the bits
// must match (NaN-safe, -0.0 != +0.0).
#define EXPECT_BITEQ(a, b)                                       \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a),                     \
            std::bit_cast<std::uint64_t>(b))                     \
      << #a " = " << (a) << " vs " << (b)

/// Every SessionResult field, bit for bit (doubles by bit pattern): the
/// golden serializations of the two results, one line per field of
/// core/result_fields.h, must be equal.
inline void expect_identical(const SessionResult& x, const SessionResult& y) {
  EXPECT_EQ(serialize_result("result", x), serialize_result("result", y));
}

inline void expect_outcome_identical(const SlotOutcome& a,
                                     const SlotOutcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error_class, b.error_class);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.backoff_ticks, b.backoff_ticks);
  EXPECT_EQ(a.admission, b.admission);
  EXPECT_EQ(a.admission_wait_ticks, b.admission_wait_ticks);
}

/// Bit-exact FleetResult comparison, supervision records included: the
/// fleet promises identical outcomes at any `parallel_sessions` value and
/// after any checkpoint/resume split.
inline void expect_fleet_identical(const FleetResult& x, const FleetResult& y) {
  ASSERT_EQ(x.sessions.size(), y.sessions.size());
  for (std::size_t k = 0; k < x.sessions.size(); ++k)
    expect_identical(x.sessions[k], y.sessions[k]);
  ASSERT_EQ(x.outcomes.size(), y.outcomes.size());
  for (std::size_t k = 0; k < x.outcomes.size(); ++k)
    expect_outcome_identical(x.outcomes[k], y.outcomes[k]);
  EXPECT_EQ(x.aborted_slots, y.aborted_slots);
  EXPECT_EQ(x.retried_slots, y.retried_slots);
  EXPECT_EQ(x.quarantined_slots, y.quarantined_slots);
  EXPECT_EQ(x.denied_slots, y.denied_slots);
  EXPECT_EQ(x.queued_slots, y.queued_slots);
  EXPECT_EQ(x.total_users, y.total_users);
  EXPECT_EQ(x.supported_users, y.supported_users);
  EXPECT_BITEQ(x.mean_displayed_fps, y.mean_displayed_fps);
  EXPECT_BITEQ(x.mean_stall_ratio, y.mean_stall_ratio);
  EXPECT_BITEQ(x.mean_quality_tier, y.mean_quality_tier);
  EXPECT_BITEQ(x.p5_displayed_fps, y.p5_displayed_fps);
  EXPECT_BITEQ(x.p50_displayed_fps, y.p50_displayed_fps);
  EXPECT_BITEQ(x.p95_displayed_fps, y.p95_displayed_fps);
  EXPECT_BITEQ(x.p95_stall_time_s, y.p95_stall_time_s);
  EXPECT_TRUE(x.tiles == y.tiles);
}

}  // namespace volcast::core
