// Ablation for Section 4.1 (multi-user viewport prediction).
//
// (1) Per-user predictor accuracy (position error at several horizons) on
//     the synthetic study traces — linear regression vs. the baselines.
// (2) Value of *joint* prediction: blockage-forecast hit rate — how often a
//     forecast issued at t predicts an actual LoS blockage at t+horizon —
//     and the occlusion-aware visibility delta.
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "core/session.h"
#include "core/testbed.h"
#include "pointcloud/video_generator.h"
#include "trace/user_study.h"
#include "viewport/joint_predictor.h"

using namespace volcast;

int main() {
  std::printf("=== Ablation: multi-user viewport prediction (Sec 4.1) ===\n");

  trace::UserStudyConfig study_config;
  study_config.samples_per_user = 600;
  const trace::UserStudy study(study_config);

  // --- (1) per-user predictor accuracy ---------------------------------
  std::printf("\nper-user 6DoF prediction error (m + rad), study traces:\n");
  std::printf("predictor          100ms   333ms   1s\n");
  for (const char* name :
       {"static", "const-velocity", "linear-regression", "ewma", "mlp"}) {
    double err[3] = {0, 0, 0};
    const int horizons[3] = {3, 10, 30};
    int count = 0;
    for (std::size_t u = 0; u < study.user_count(); u += 3) {
      const auto predictor = view::make_predictor(name);
      const auto& poses = study.trace(u).poses;
      for (std::size_t i = 0; i + 30 < poses.size(); ++i) {
        predictor->observe(static_cast<double>(i) / 30.0, poses[i]);
        if (i < 15) continue;
        for (int h = 0; h < 3; ++h) {
          const auto predicted =
              predictor->predict(horizons[h] / 30.0);
          err[h] += predicted.distance(
              poses[i + static_cast<std::size_t>(horizons[h])]);
        }
        ++count;
      }
    }
    std::printf("%-18s %.3f   %.3f   %.3f\n", name, err[0] / count,
                err[1] / count, err[2] / count);
  }

  // --- (2) joint prediction: blockage forecasting ----------------------
  core::Testbed testbed;
  view::JointPredictorConfig jc;
  jc.ap_position =
      testbed.config().ap_position - testbed.config().content_floor;
  const std::size_t n_users = 6;
  view::JointViewportPredictor joint(n_users, jc);

  const int horizon_ticks = 6;  // 200 ms look-ahead
  std::size_t forecasts = 0;
  std::size_t hits = 0;
  std::size_t actual_events = 0;
  std::size_t predicted_events = 0;

  std::vector<std::vector<geo::Pose>> history;
  const std::size_t samples = study.trace(0).size();
  for (std::size_t f = 0; f < samples; ++f) {
    std::vector<geo::Pose> poses;
    for (std::size_t u = 0; u < n_users; ++u)
      poses.push_back(study.trace(16 + u).poses[f]);  // headset group
    history.push_back(poses);
  }

  auto actual_blockage = [&](std::size_t frame, std::size_t user) {
    for (std::size_t v = 0; v < n_users; ++v) {
      if (v == user) continue;
      geo::BodyObstacle body{history[frame][v].position, 0.25, 1.8};
      if (geo::segment_hits_body(jc.ap_position,
                                 history[frame][user].position, body))
        return true;
    }
    return false;
  };

  for (std::size_t f = 0; f + horizon_ticks < samples; ++f) {
    joint.observe(static_cast<double>(f) / 30.0, history[f]);
    if (f < 15) continue;
    const auto predicted_poses =
        joint.predict_poses(horizon_ticks / 30.0);
    const auto fcs = joint.forecast_blockages(predicted_poses);
    std::vector<bool> forecast_user(n_users, false);
    for (const auto& fc : fcs) forecast_user[fc.user] = true;
    for (std::size_t u = 0; u < n_users; ++u) {
      const bool actual = actual_blockage(f + horizon_ticks, u);
      if (forecast_user[u]) {
        ++forecasts;
        if (actual) ++hits;
      }
      if (actual) ++actual_events;
      if (forecast_user[u] && actual) ++predicted_events;
    }
  }
  std::printf("\njoint blockage forecasting (200 ms ahead, 6 headset "
              "users):\n");
  std::printf("forecast precision: %.0f%% (%zu/%zu forecasts correct)\n",
              forecasts ? 100.0 * hits / forecasts : 0.0, hits, forecasts);
  std::printf("recall: %.0f%% of the %zu actual blocked user-frames were "
              "forecast\n",
              actual_events ? 100.0 * predicted_events / actual_events : 0.0,
              actual_events);

  // --- (3) occlusion-aware visibility ----------------------------------
  vv::VideoConfig vc;
  vc.points_per_frame = 60'000;
  vc.frame_count = 30;
  const vv::VideoGenerator generator(vc);
  const vv::CellGrid grid(generator.content_bounds(), 0.5);
  view::JointPredictorConfig with = jc;
  view::JointPredictorConfig without = jc;
  without.user_occlusion = false;
  view::JointViewportPredictor joint_with(n_users, with);
  view::JointViewportPredictor joint_without(n_users, without);
  double bytes_with = 0.0;
  double bytes_without = 0.0;
  for (std::size_t f = 0; f < 300; f += 10) {
    joint_with.observe(static_cast<double>(f) / 30.0, history[f]);
    joint_without.observe(static_cast<double>(f) / 30.0, history[f]);
    const auto occupancy = grid.occupancy(generator.frame_soa(f % 30));
    const auto pw = joint_with.predict(0.1, grid, occupancy);
    const auto pwo = joint_without.predict(0.1, grid, occupancy);
    for (std::size_t u = 0; u < n_users; ++u) {
      bytes_with += static_cast<double>(pw.visibility[u].visible_count());
      bytes_without +=
          static_cast<double>(pwo.visibility[u].visible_count());
    }
  }
  std::printf("\nuser-user occlusion saves %.1f%% of fetched cells "
              "(AR semantics: you see the person, not the content)\n",
              100.0 * (1.0 - bytes_with / bytes_without));

  // --- (4) prediction-horizon sweep (full sessions) --------------------
  // Longer look-ahead gives the scheduler more slack but predicts worse:
  // the viewport-miss ratio is the cost the horizon pays.
  std::printf("\nprediction-horizon sweep (4 users, full sessions):\n");
  std::printf("horizon  mean fps  viewport miss  m2p ms\n");
  for (double horizon : {1.0 / 30.0, 0.1, 0.2, 1.0 / 3.0, 0.5}) {
    core::SessionConfig sc;
    sc.user_count = 4;
    sc.duration_s = 4.0;
    sc.master_points = 60'000;
    sc.video_frames = 30;
    sc.prediction_horizon_s = horizon;
    core::Session session(sc);
    const auto r = session.run();
    double miss = 0.0;
    double m2p = 0.0;
    for (const auto& u : r.qoe.users) {
      miss += u.viewport_miss_ratio;
      m2p += u.mean_m2p_latency_s;
    }
    miss /= static_cast<double>(r.qoe.users.size());
    m2p /= static_cast<double>(r.qoe.users.size());
    std::printf("%4.0f ms  %8.1f  %12.1f%%  %6.1f\n", horizon * 1e3,
                r.qoe.mean_fps(), 100.0 * miss, 1e3 * m2p);
  }
  return 0;
}
