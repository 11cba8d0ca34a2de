// Session golden suite: the golden file pins every SessionResult field
// (one line each, as listed in core/result_fields.h) of every case of the
// ablation × fault matrix, written by tests/gen_session_goldens.cpp. Every
// case is checked at two thread counts, so the suite also pins the
// worker_threads invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/workload_bundle.h"
#include "session_golden.h"

#ifndef VOLCAST_GOLDEN_DIR
#error "VOLCAST_GOLDEN_DIR must point at tests/golden"
#endif

namespace volcast::core {
namespace {

/// name -> serialized block, split on the "case." line prefixes.
std::map<std::string, std::string> load_goldens() {
  const std::string path =
      std::string(VOLCAST_GOLDEN_DIR) + "/session_results.golden";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::map<std::string, std::string> blocks;
  std::string line;
  while (std::getline(in, line)) {
    const auto dot = line.find('.');
    if (dot == std::string::npos) continue;
    blocks[line.substr(0, dot)] += line + '\n';
  }
  return blocks;
}

class RefactorEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RefactorEquivalence, MatchesPreRefactorGoldens) {
  const std::size_t threads = GetParam();
  const auto goldens = load_goldens();
  ASSERT_FALSE(goldens.empty());
  for (const GoldenCase& c : golden_matrix()) {
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden block for case " << c.name;
    SessionConfig config = c.config;
    config.worker_threads = threads;
    Session session(config);
    const std::string got = serialize_result(c.name, session.run());
    // Line-by-line so a mismatch names the exact field.
    std::istringstream want_in(it->second);
    std::istringstream got_in(got);
    std::string want_line;
    std::string got_line;
    while (std::getline(want_in, want_line)) {
      ASSERT_TRUE(std::getline(got_in, got_line))
          << c.name << ": serialized result ended early, expected "
          << want_line;
      EXPECT_EQ(got_line, want_line) << "case " << c.name;
    }
    EXPECT_FALSE(std::getline(got_in, got_line))
        << c.name << ": extra serialized field " << got_line;
  }
}

TEST_P(RefactorEquivalence, MatchesGoldensWithOneSharedBundle) {
  // The whole ablation matrix keeps the same workload identity (seed 7,
  // 30k points, 20 frames), so ONE shared bundle must serve every case —
  // and reproduce the golden file byte for byte, proving the
  // shared-setup path changes wall clock only, never results.
  const std::size_t threads = GetParam();
  const auto goldens = load_goldens();
  ASSERT_FALSE(goldens.empty());
  const std::vector<GoldenCase> matrix = golden_matrix();
  std::shared_ptr<const WorkloadBundle> bundle;
  for (const GoldenCase& c : matrix) {
    SessionConfig config = c.config;
    config.worker_threads = threads;
    if (bundle == nullptr) bundle = WorkloadBundle::build(config);
    ASSERT_TRUE(bundle->key() == WorkloadKey::from(config))
        << "case " << c.name << " broke the shared workload identity";
    config.bundle = bundle;
    Session session(config);
    const std::string got = serialize_result(c.name, session.run());
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden block for case " << c.name;
    EXPECT_EQ(got, it->second) << "case " << c.name;
  }
}

TEST(GoldenMatrix, BrownoutCaseRunsTheGovernorAndStitchesTiles) {
  // The golden pins the overload and stitched-tile keys of every case; this
  // one must give them values the brownout and stitching code computed.
  const auto matrix = golden_matrix();
  const auto it = std::find_if(matrix.begin(), matrix.end(),
                               [](const GoldenCase& g) {
                                 return g.name == "brownout_shared";
                               });
  ASSERT_NE(it, matrix.end());
  const SessionResult r = Session(it->config).run();
  EXPECT_GT(r.overload.yellow_ticks, 0u);
  EXPECT_GT(r.overload.orange_ticks, 0u);
  EXPECT_GT(r.overload.red_ticks, 0u);
  EXPECT_GT(r.overload.transitions, 0u);
  EXPECT_GT(r.overload.tier_capped_user_ticks, 0u);
  EXPECT_GT(r.overload.peak_utilization, 1.0);
  EXPECT_GT(r.tiles.stitched_tiles, 0u);
  EXPECT_GT(r.tiles.stitched_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, RefactorEquivalence,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "threads" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace volcast::core
