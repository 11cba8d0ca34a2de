// Heap allocations per steady-state tick.
//
// A session keeps its tick storage (link tables, grouping search buffers,
// the reflection designer's scratch table) across ticks, so once the first
// ticks have grown it a tick should allocate little: the per-tick products
// of TickContext and what the stages hand back by value. This executable
// replaces the global operator new with a counting one and pins the
// allocations of every tick from the third on, for a crowd16-shaped and a
// surround_wire-shaped session (the ledger's two multicast workloads). A
// reintroduced allocation per link row, per grouping candidate or per
// forecast moves these counts by hundreds and fails here.
//
// The counter sits in its own executable: replacing operator new is
// process-wide.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "core/session.h"
#include "core/stages/registry.h"
#include "fault/fault_plan.h"
#include "mmwave/phased_array.h"
#include "transport/wire.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace volcast::core {
namespace {

constexpr std::string_view kCountedPrefix = "alloc_counted:";

/// Allocations of every slot in every tick of the session that runs now.
struct AllocationLog {
  std::vector<std::array<std::size_t, kStageKindCount>> ticks;
};

/// Runs a registered policy and books the allocations it made to its slot.
/// The overload slot runs first in every tick, so it opens a tick.
class CountedStage final : public Stage {
 public:
  CountedStage(std::unique_ptr<Stage> inner, AllocationLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] StageKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void run(SessionState& state, TickContext& ctx) override {
    if (inner_->kind() == StageKind::kOverload) log_.ticks.emplace_back();
    const std::size_t before = g_allocations.load();
    inner_->run(state, ctx);
    log_.ticks.back()[static_cast<std::size_t>(inner_->kind())] +=
        g_allocations.load() - before;
  }

 private:
  std::unique_ptr<Stage> inner_;
  AllocationLog& log_;
};

/// Runs `c` with every slot counted and returns its per-tick log.
AllocationLog run_counted(SessionConfig c) {
  static AllocationLog log;
  static const bool registered = [] {
    PolicyRegistry& registry = PolicyRegistry::instance();
    for (std::size_t k = 0; k < kStageKindCount; ++k) {
      const auto kind = static_cast<StageKind>(k);
      for (const std::string& name : registry.names(kind))
        registry.add(kind, std::string(kCountedPrefix) + name,
                     [kind, name](const SessionConfig& config) {
                       return std::make_unique<CountedStage>(
                           PolicyRegistry::instance().create(kind, name,
                                                             config),
                           log);
                     });
    }
    return true;
  }();
  (void)registered;
  for (std::size_t k = 0; k < kStageKindCount; ++k) {
    const auto kind = static_cast<StageKind>(k);
    const std::string slot(to_string(kind));
    const auto it = c.policy_overrides.find(slot);
    const std::string inner =
        it != c.policy_overrides.end() ? it->second : default_policy(kind, c);
    c.policy_overrides[slot] = std::string(kCountedPrefix) + inner;
  }
  log.ticks.clear();
  (void)Session(c).run();
  return log;
}

SessionConfig base_config(std::uint64_t seed) {
  SessionConfig c;
  c.seed = seed;
  c.content_seed = 999'999;
  c.duration_s = 2.0;
  c.master_points = 60'000;
  c.video_frames = 30;
  c.worker_threads = 1;
  return c;
}

SessionConfig crowd16(std::uint64_t seed) {
  SessionConfig c = base_config(seed);
  c.user_count = 16;
  c.ap_count = 1;
  c.audience_spread_rad = 2.0;
  return c;
}

SessionConfig surround_wire(std::uint64_t seed) {
  SessionConfig c = base_config(seed);
  c.user_count = 8;
  c.ap_count = 2;
  c.audience_spread_rad = 6.283185307179586;
  c.policy_overrides["tiling"] = "shared";
  c.policy_overrides["transport"] = "hybrid";
  c.overload.enabled = true;
  fault::ChaosConfig chaos;
  chaos.seed = c.seed;
  chaos.duration_s = c.duration_s;
  chaos.user_count = c.user_count;
  chaos.ap_count = c.ap_count;
  chaos.burst_loss_probability = 0.3;
  c.fault_plan = fault::random_plan(chaos);
  return c;
}

/// The first ticks grow the reused storage; from this tick on it is warm.
constexpr std::size_t kFirstSteadyTick = 3;

/// Allocation budgets per steady-state tick: the most in any one tick, the
/// mean, and the most the Transport slot makes in one tick, each the
/// largest count measured at seeds 1 and 11 (151, 100.7 and 22 for
/// crowd16; 91, 60.3 and 15 for surround_wire) plus about a sixth.
/// Rebuilding one link table per tick, allocating per grouping candidate,
/// or per packet train on the wire, adds hundreds; a delivery that
/// schedules a heap-held callback adds one per frame to the Transport slot.
struct Budget {
  std::size_t max_tick;
  double mean_tick;
  std::size_t max_transport;
};
constexpr Budget kCrowd16Budget{176, 118.0, 26};
constexpr Budget kSurroundWireBudget{106, 71.0, 18};

struct SteadyState {
  std::size_t max_tick = 0;
  double mean_tick = 0.0;
  std::array<std::size_t, kStageKindCount> max_slot{};
};

SteadyState steady_state(const AllocationLog& log) {
  SteadyState s;
  std::size_t total = 0;
  for (std::size_t t = kFirstSteadyTick; t < log.ticks.size(); ++t) {
    std::size_t tick = 0;
    for (std::size_t k = 0; k < kStageKindCount; ++k) {
      tick += log.ticks[t][k];
      s.max_slot[k] = std::max(s.max_slot[k], log.ticks[t][k]);
    }
    s.max_tick = std::max(s.max_tick, tick);
    total += tick;
  }
  const std::size_t steady = log.ticks.size() - kFirstSteadyTick;
  s.mean_tick = static_cast<double>(total) / static_cast<double>(steady);
  return s;
}

std::string describe(const SteadyState& s) {
  std::ostringstream out;
  out << "max " << s.max_tick << ", mean " << s.mean_tick
      << " per tick; max by slot:";
  for (std::size_t k = 0; k < kStageKindCount; ++k)
    out << " " << to_string(static_cast<StageKind>(k)) << "=" << s.max_slot[k];
  return out.str();
}

TEST(TickAllocations, CounterSeesVectorGrowth) {
  const std::size_t before = g_allocations.load();
  auto* v = new std::vector<int>(100, 1);
  v->push_back(2);
  delete v;
  EXPECT_GE(g_allocations.load() - before, 3u);
}

void expect_within(const char* workload, SessionConfig (*shape)(std::uint64_t),
                   const Budget& budget) {
  for (const std::uint64_t seed : {1u, 11u}) {
    const AllocationLog log = run_counted(shape(seed));
    ASSERT_EQ(log.ticks.size(), 60u);
    const SteadyState s = steady_state(log);
    std::printf("%s seed %llu: %s\n", workload,
                static_cast<unsigned long long>(seed), describe(s).c_str());
    EXPECT_LE(s.max_tick, budget.max_tick) << describe(s);
    EXPECT_LE(s.mean_tick, budget.mean_tick) << describe(s);
    EXPECT_LE(s.max_slot[static_cast<std::size_t>(StageKind::kTransport)],
              budget.max_transport)
        << describe(s);
  }
}

TEST(TickAllocations, ArrayResponseAndPacketTrainAllocateNothing) {
  // Two kernels every tick runs many times: an array response into storage
  // it has already grown, and a lossy hybrid packet train.
  const mmwave::PhasedArray ap({}, geo::Pose{}, kMmWaveCarrierHz);
  mmwave::Steering response;
  ap.response({1, 0, 0}, response);
  transport::TrainParams params;
  params.frame_bits = 8.0 * 300'000;
  params.per = 0.05;
  params.burst_loss = 0.4;
  params.deadline_ms = 20.0;
  params.seed = 3;
  transport::ReceiverState rx;
  std::uint64_t lost = 0;
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    ap.response(geo::Vec3{0.6, 0.01 * i, 0.3}.normalized(), response);
    lost += transport::transmit_train(transport::TransportPolicy::kHybrid,
                                      params, rx)
                .lost_packets;
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(lost, 0u);  // the trains did repair work
}

TEST(TickAllocations, Crowd16SteadyTickStaysUnderBudget) {
  expect_within("crowd16", crowd16, kCrowd16Budget);
}

TEST(TickAllocations, SurroundWireSteadyTickStaysUnderBudget) {
  expect_within("surround_wire", surround_wire, kSurroundWireBudget);
}

}  // namespace
}  // namespace volcast::core
