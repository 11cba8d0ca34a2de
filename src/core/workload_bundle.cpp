#include "core/workload_bundle.h"

#include <atomic>
#include <bit>

#include "common/fnv.h"
#include "common/thread_pool.h"
#include "core/session.h"

namespace volcast::core {
namespace {

std::atomic<std::uint64_t> g_builds{0};

vv::VideoConfig video_config(const WorkloadKey& key) {
  vv::VideoConfig vc;
  vc.points_per_frame = static_cast<std::size_t>(key.master_points);
  vc.frame_count = static_cast<std::size_t>(key.video_frames);
  vc.fps = key.fps;
  vc.seed = key.video_seed;
  return vc;
}

vv::VideoStoreConfig store_config(const WorkloadKey& key,
                                  common::ThreadPool* pool) {
  vv::VideoStoreConfig sc;
  // Scale the paper's 330K/430K/550K tier ladder to the configured
  // master point budget.
  const double scale = static_cast<double>(key.master_points) / 550'000.0;
  sc.tiers = {{"low", static_cast<std::size_t>(330'000 * scale)},
              {"med", static_cast<std::size_t>(430'000 * scale)},
              {"high", static_cast<std::size_t>(key.master_points)}};
  sc.sample_frames = 1;
  sc.pool = pool;
  return sc;
}

}  // namespace

WorkloadKey WorkloadKey::from(const SessionConfig& config) {
  WorkloadKey key;
  // content_seed decouples the video identity from the session seed so
  // fleet slots (seed + k) can stream the *same* content and share both
  // tiles and this bundle.
  key.video_seed = config.content_seed != 0 ? config.content_seed
                                            : (config.seed ^ 0xc0ffee);
  key.master_points = config.master_points;
  key.video_frames = config.video_frames;
  key.fps = config.fps;
  key.cell_size_m = config.cell_size_m;
  return key;
}

std::uint64_t WorkloadKey::hash() const noexcept {
  common::Fnv1a h;
  h.u64(video_seed);
  h.u64(master_points);
  h.u64(video_frames);
  h.u64(std::bit_cast<std::uint64_t>(fps));
  h.u64(std::bit_cast<std::uint64_t>(cell_size_m));
  return h.digest();
}

std::uint64_t workload_bundle_hash(const SessionConfig& config) {
  return WorkloadKey::from(config).hash();
}

WorkloadBundle::WorkloadBundle(WorkloadKey key, common::ThreadPool& pool)
    : key_(key),
      generator_(std::make_unique<vv::VideoGenerator>(video_config(key_),
                                                      &pool)),
      grid_(std::make_unique<vv::CellGrid>(generator_->content_bounds(),
                                           key_.cell_size_m)),
      store_(std::make_unique<vv::VideoStore>(*generator_, *grid_,
                                              store_config(key_, &pool))) {}

std::shared_ptr<const WorkloadBundle> WorkloadBundle::build(
    const SessionConfig& config) {
  g_builds.fetch_add(1, std::memory_order_relaxed);
  // A bundle-local pool for the generator's sampling and the store
  // precompute: both are bit-identical at any thread count, so sharing
  // them across sessions with different worker_threads settings is sound.
  common::ThreadPool pool(config.worker_threads);
  return std::shared_ptr<const WorkloadBundle>(
      new WorkloadBundle(WorkloadKey::from(config), pool));
}

std::uint64_t WorkloadBundle::builds_total() noexcept {
  return g_builds.load(std::memory_order_relaxed);
}

}  // namespace volcast::core
