// volcast_trace — generate, inspect and export 6DoF viewing traces.
//
//   volcast_trace --export=DIR [--users=32 --samples=300 --seed=42]
//       writes the synthetic user study as user<N>.trace files (VCTRACE
//       format), ready for `volcast_sim --replay=DIR` or external tools;
//   volcast_trace --summary
//       prints per-user motion statistics of the study;
//   volcast_trace --iou
//       prints the pairwise viewport-similarity matrix (50 cm cells);
//   volcast_trace summarize telemetry.jsonl
//       renders a `volcast_sim --telemetry` log as per-stage cost/time
//       percentile tables plus event and metric summaries.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/jsonl.h"
#include "pointcloud/video_generator.h"
#include "trace/trace_io.h"
#include "trace/user_study.h"
#include "viewport/similarity.h"

using namespace volcast;

namespace {

trace::UserStudy build_study(const FlagParser& flags) {
  trace::UserStudyConfig config;
  const std::size_t users = flags.size("users");
  config.smartphone_users = users / 2;
  config.headset_users = users - users / 2;
  config.samples_per_user = flags.size("samples");
  config.seed = flags.u64("seed");
  return trace::UserStudy(config);
}

void print_summary(const trace::UserStudy& study) {
  AsciiTable table;
  table.header({"user", "device", "travel m", "mean speed m/s",
                "radius mean m"});
  for (std::size_t u = 0; u < study.user_count(); ++u) {
    const auto& poses = study.trace(u).poses;
    double travel = 0.0;
    RunningStats radius;
    for (std::size_t i = 0; i < poses.size(); ++i) {
      if (i > 0)
        travel += poses[i].position.distance(poses[i - 1].position);
      radius.add(std::hypot(poses[i].position.x, poses[i].position.y));
    }
    const double duration = study.trace(u).duration_s();
    table.row({std::to_string(u), to_string(study.device_of(u)),
               AsciiTable::num(travel, 2),
               AsciiTable::num(duration > 0 ? travel / duration : 0.0, 3),
               AsciiTable::num(radius.mean(), 2)});
  }
  std::printf("%s", table.render().c_str());
}

void print_iou(const trace::UserStudy& study) {
  vv::VideoConfig vc;
  vc.points_per_frame = 60'000;
  vc.frame_count = 30;
  const vv::VideoGenerator generator(vc);
  const vv::CellGrid grid(generator.content_bounds(), 0.5);

  // Mean pairwise IoU over sampled frames.
  const std::size_t n = study.user_count();
  std::vector<std::vector<double>> mean_iou(n, std::vector<double>(n, 0.0));
  int samples = 0;
  for (std::size_t f = 0; f < study.trace(0).size(); f += 15) {
    const auto occupancy = grid.occupancy(generator.frame_soa(f % 30));
    std::vector<view::VisibilityMap> maps;
    maps.reserve(n);
    for (std::size_t u = 0; u < n; ++u) {
      view::VisibilityOptions options;
      options.intrinsics = view::device_intrinsics(study.device_of(u));
      maps.push_back(view::compute_visibility(grid, occupancy,
                                              study.trace(u).poses[f],
                                              options));
    }
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b)
        mean_iou[a][b] += view::iou(maps[a], maps[b]);
    ++samples;
  }
  std::printf("mean pairwise IoU (50 cm cells), row/col = user id:\n    ");
  for (std::size_t b = 0; b < n; ++b) std::printf("%4zu", b);
  std::printf("\n");
  for (std::size_t a = 0; a < n; ++a) {
    std::printf("%4zu", a);
    for (std::size_t b = 0; b < n; ++b)
      std::printf(" %.1f", mean_iou[a][b] / samples);
    std::printf("\n");
  }
}

/// `volcast_trace summarize <telemetry.jsonl>`: per-stage span tables
/// (logical cost always; wall time when the log captured it), event counts
/// by layer/type, and the counter snapshot.
int summarize(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "volcast_trace: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    std::fprintf(stderr, "volcast_trace: read error on %s\n", path.c_str());
    return 1;
  }
  std::vector<obs::JsonRecord> records;
  try {
    records = obs::parse_jsonl(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volcast_trace: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr,
                 "volcast_trace: %s holds no telemetry records (empty or "
                 "not a --telemetry log)\n",
                 path.c_str());
    return 1;
  }

  struct StageStats {
    std::size_t count = 0;
    EmpiricalDistribution cost;
    EmpiricalDistribution wall_us;
  };
  std::map<std::string, StageStats> stages;
  std::map<std::string, std::size_t> events;
  std::vector<std::pair<std::string, std::string>> counters;
  // Wire counters ("transport.*"), pulled out into their own section.
  std::map<std::string, unsigned long long> wire;
  // Tile counters ("tile.*"), same treatment, plus the per-user encode
  // gauge.
  std::map<std::string, unsigned long long> tiles;
  // Overload-control counters ("overload.*") plus the brownout
  // level/utilization gauges (last value wins = end-of-run state).
  std::map<std::string, unsigned long long> overload;
  // Grouping-search effort: plan-cache evaluations and hits, and the
  // multicast beam designs the evaluations ran.
  std::map<std::string, unsigned long long> grouping;
  // Tick link state: rows the per-AP link tables built, and the RSS
  // evaluations priced through them.
  std::map<std::string, unsigned long long> link;
  double brownout_level = -1.0;
  double brownout_utilization = -1.0;
  double encode_bytes_per_user = -1.0;
  bool has_wall = false;
  std::size_t ticks = 0;

  try {
    for (const obs::JsonRecord& record : records) {
      const std::string kind = record.str("record");
      if (kind == "meta") {
        std::printf("session: %llu users, %llu AP(s), %.0f fps, %.1f s, "
                    "seed %llu\n",
                    static_cast<unsigned long long>(record.uint("users")),
                    static_cast<unsigned long long>(record.uint("aps")),
                    record.num("fps"), record.num("duration_s"),
                    static_cast<unsigned long long>(record.uint("seed")));
      } else if (kind == "span") {
        StageStats& s = stages[record.str("stage")];
        ++s.count;
        s.cost.add(record.num("cost"));
        if (record.has("wall_us")) {
          has_wall = true;
          s.wall_us.add(record.num("wall_us"));
        }
        ticks = std::max(ticks,
                         static_cast<std::size_t>(record.uint("tick")) + 1);
      } else if (kind == "event") {
        ++events[record.str("layer") + "/" + record.str("type")];
      } else if (kind == "counter") {
        const std::string name = record.str("name");
        counters.emplace_back(name, record.raw("value"));
        if (name.rfind("transport.", 0) == 0)
          wire[name.substr(10)] =
              static_cast<unsigned long long>(record.uint("value"));
        if (name.rfind("tile.", 0) == 0)
          tiles[name.substr(5)] =
              static_cast<unsigned long long>(record.uint("value"));
        if (name.rfind("overload.", 0) == 0)
          overload[name.substr(9)] =
              static_cast<unsigned long long>(record.uint("value"));
        if (name.rfind("grouping.plan_", 0) == 0 ||
            name == "beam.multicast_designs")
          grouping[name] =
              static_cast<unsigned long long>(record.uint("value"));
        if (name.rfind("mmwave.", 0) == 0)
          link[name] = static_cast<unsigned long long>(record.uint("value"));
      } else if (kind == "gauge") {
        const std::string name = record.str("name");
        counters.emplace_back(name, record.raw("value"));
        if (name == "tile.encode_bytes_per_user")
          encode_bytes_per_user = record.num("value");
        if (name == "overload.level") brownout_level = record.num("value");
        if (name == "overload.utilization")
          brownout_utilization = record.num("value");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volcast_trace: %s: %s\n", path.c_str(), e.what());
    return 1;
  }

  std::printf("%zu ticks\n\nper-stage spans:\n", ticks);
  AsciiTable table;
  if (has_wall) {
    table.header({"stage", "spans", "cost p50", "cost p99", "wall p50 us",
                  "wall p99 us", "wall total ms"});
  } else {
    table.header({"stage", "spans", "cost p50", "cost p99", "cost total"});
  }
  for (auto& [stage, s] : stages) {
    std::vector<std::string> row = {stage, std::to_string(s.count),
                                    AsciiTable::num(s.cost.percentile(50), 0),
                                    AsciiTable::num(s.cost.percentile(99), 0)};
    if (has_wall) {
      row.push_back(AsciiTable::num(s.wall_us.percentile(50), 1));
      row.push_back(AsciiTable::num(s.wall_us.percentile(99), 1));
      const double total_us =
          s.wall_us.mean() * static_cast<double>(s.wall_us.count());
      row.push_back(AsciiTable::num(total_us / 1e3, 2));
    } else {
      const double total =
          s.cost.mean() * static_cast<double>(s.cost.count());
      row.push_back(AsciiTable::num(total, 0));
    }
    table.row(row);
  }
  std::printf("%s", table.render().c_str());

  if (!events.empty()) {
    std::printf("\nevents:\n");
    AsciiTable etable;
    etable.header({"layer/type", "count"});
    for (const auto& [key, count] : events)
      etable.row({key, std::to_string(count)});
    std::printf("%s", etable.render().c_str());
  }
  if (!wire.empty()) {
    // The packet wire was on (--policy transport=fec|nack|hybrid): render
    // its counters as a dedicated section so loss/recovery behaviour is
    // inspectable straight from the log.
    const auto get = [&](const char* key) -> unsigned long long {
      const auto it = wire.find(key);
      return it != wire.end() ? it->second : 0ULL;
    };
    std::printf("\ntransport wire:\n");
    AsciiTable wtable;
    wtable.header({"metric", "value"});
    wtable.row({"data packets sent", std::to_string(get("packets_sent"))});
    wtable.row({"parity packets sent",
                std::to_string(get("parity_packets"))});
    wtable.row({"packets lost", std::to_string(get("packets_lost"))});
    wtable.row({"packets retransmitted",
                std::to_string(get("retransmitted_packets"))});
    wtable.row({"tiles recovered by FEC",
                std::to_string(get("fec_recovered_tiles"))});
    wtable.row({"tiles past deadline",
                std::to_string(get("deadline_missed_tiles"))});
    std::printf("%s", wtable.render().c_str());
  }
  if (!tiles.empty()) {
    // The tiling stage was on: the encode-vs-stitch split and the bytes
    // stitching saved, straight from the log.
    const auto get = [&](const char* key) -> unsigned long long {
      const auto it = tiles.find(key);
      return it != tiles.end() ? it->second : 0ULL;
    };
    std::printf("\ntiles:\n");
    AsciiTable ttable;
    ttable.header({"metric", "value"});
    ttable.row({"tiles assembled", std::to_string(get("requests"))});
    ttable.row({"tiles encoded", std::to_string(get("encoded_tiles"))});
    ttable.row({"tiles stitched", std::to_string(get("stitched_tiles"))});
    ttable.row({"encode MB",
                AsciiTable::num(
                    static_cast<double>(get("encoded_bytes")) / 1e6, 2)});
    ttable.row({"stitched MB saved",
                AsciiTable::num(
                    static_cast<double>(get("stitched_bytes")) / 1e6, 2)});
    if (encode_bytes_per_user >= 0.0)
      ttable.row({"encode MB per user",
                  AsciiTable::num(encode_bytes_per_user / 1e6, 2)});
    std::printf("%s", ttable.render().c_str());
  }
  if (!overload.empty() || brownout_level >= 0.0) {
    // Overload control was on (--overload): how often the governor browned
    // out and what each shed lever dropped.
    const auto get = [&](const char* key) -> unsigned long long {
      const auto it = overload.find(key);
      return it != overload.end() ? it->second : 0ULL;
    };
    const unsigned long long gov_ticks = get("ticks");
    const unsigned long long brown = get("brownout_ticks");
    std::printf("\noverload control:\n");
    AsciiTable otable;
    otable.header({"metric", "value"});
    if (gov_ticks > 0) {
      otable.row({"brownout ticks",
                  std::to_string(brown) + " / " + std::to_string(gov_ticks)});
      otable.row({"brownout ratio",
                  AsciiTable::num(static_cast<double>(brown) /
                                      static_cast<double>(gov_ticks),
                                  3)});
    }
    if (brownout_level >= 0.0) {
      static const char* kLevels[] = {"green", "yellow", "orange", "red"};
      const int lvl = static_cast<int>(brownout_level);
      otable.row({"final level",
                  lvl >= 0 && lvl <= 3 ? kLevels[lvl] : "?"});
    }
    if (brownout_utilization >= 0.0)
      otable.row({"final utilization",
                  AsciiTable::num(brownout_utilization, 3)});
    otable.row({"tier-capped user ticks", std::to_string(get("tier_caps"))});
    otable.row({"cells shed", std::to_string(get("cells_shed"))});
    otable.row({"tile encodes deferred",
                std::to_string(get("deferred_tiles"))});
    std::printf("%s", otable.render().c_str());
  }
  if (grouping.count("grouping.plan_evals") != 0) {
    // Each plan evaluation prices one candidate group (one multicast beam
    // design); hits are candidates the search revisited for free; skips
    // are candidates whose rate bound ruled them out unpriced.
    const auto get = [&](const char* key) -> unsigned long long {
      const auto it = grouping.find(key);
      return it != grouping.end() ? it->second : 0ULL;
    };
    const unsigned long long evals = get("grouping.plan_evals");
    const unsigned long long hits = get("grouping.plan_hits");
    const unsigned long long skips = get("grouping.plan_skips");
    const double per_tick = ticks > 0 ? 1.0 / static_cast<double>(ticks) : 0.0;
    std::printf("\ngrouping search:\n");
    AsciiTable gtable;
    gtable.header({"metric", "value"});
    gtable.row({"candidate plans evaluated", std::to_string(evals)});
    gtable.row({"plan cache hits", std::to_string(hits)});
    gtable.row({"plan cache hit rate",
                evals + hits > 0
                    ? AsciiTable::num(static_cast<double>(hits) /
                                          static_cast<double>(evals + hits),
                                      3)
                    : "-"});
    gtable.row({"candidates skipped by bound", std::to_string(skips)});
    gtable.row({"bound skip rate",
                evals + skips > 0
                    ? AsciiTable::num(static_cast<double>(skips) /
                                          static_cast<double>(evals + skips),
                                      3)
                    : "-"});
    gtable.row({"plans evaluated per tick",
                AsciiTable::num(static_cast<double>(evals) * per_tick, 1)});
    gtable.row({"multicast designs per tick",
                AsciiTable::num(
                    static_cast<double>(get("beam.multicast_designs")) *
                        per_tick,
                    1)});
    std::printf("%s", gtable.render().c_str());
  }
  if (link.count("mmwave.link_rows") != 0) {
    // Each row is one receiver's traced multipath toward one AP, built at
    // most once a tick; every RSS after that is a masked sum over it, a
    // price reused from the row's memo, or a threshold test screened in
    // linear power.
    const unsigned long long rows = link["mmwave.link_rows"];
    const unsigned long long evals = link["mmwave.rss_evals"];
    const unsigned long long reused = link["mmwave.rss_reused"];
    const unsigned long long screened = link["mmwave.rss_screened"];
    const unsigned long long priced = evals + reused + screened;
    const auto rate = [&](unsigned long long part) {
      return priced > 0 ? AsciiTable::num(static_cast<double>(part) /
                                              static_cast<double>(priced),
                                          3)
                        : std::string("-");
    };
    std::printf("\ntick link state:\n");
    AsciiTable ltable;
    ltable.header({"metric", "value"});
    ltable.row({"rows built", std::to_string(rows)});
    ltable.row({"rows built per tick",
                ticks > 0 ? AsciiTable::num(static_cast<double>(rows) /
                                                static_cast<double>(ticks),
                                            1)
                          : "-"});
    ltable.row({"RSS evaluations per row",
                rows > 0 ? AsciiTable::num(static_cast<double>(evals) /
                                               static_cast<double>(rows),
                                           1)
                         : "-"});
    ltable.row({"prices reused", std::to_string(reused)});
    ltable.row({"reuse rate", rate(reused)});
    ltable.row({"probes screened", std::to_string(screened)});
    ltable.row({"screen rate", rate(screened)});
    std::printf("%s", ltable.render().c_str());
  }
  if (!counters.empty()) {
    std::printf("\ncounters:\n");
    AsciiTable ctable;
    ctable.header({"name", "value"});
    for (const auto& [name, value] : counters) ctable.row({name, value});
    std::printf("%s", ctable.render().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Sub-command form (positional, before flag parsing): summarize <file>.
  if (argc >= 2 && std::string(argv[1]) == "summarize") {
    if (argc != 3) {
      std::fprintf(stderr,
                   "usage: volcast_trace summarize <telemetry.jsonl>\n");
      return 1;
    }
    return summarize(argv[2]);
  }
  FlagParser flags("volcast_trace", "6DoF viewing-trace toolkit");
  flags.add_number("users", 32, "study participants (half PH, half HM)");
  flags.add_number("samples", 300, "samples per trace at 30 Hz");
  flags.add_number("seed", 42, "study seed");
  flags.add_string("export", "", "write user<N>.trace files to a directory");
  flags.add_switch("summary", "print per-user motion statistics");
  flags.add_switch("iou", "print the pairwise viewport-similarity matrix");

  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "volcast_trace: %s\n%s", error.c_str(),
                 flags.help().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }

  const trace::UserStudy study = build_study(flags);

  const std::string export_dir = flags.str("export");
  if (!export_dir.empty()) {
    std::filesystem::create_directories(export_dir);
    for (std::size_t u = 0; u < study.user_count(); ++u) {
      const auto path = std::filesystem::path(export_dir) /
                        ("user" + std::to_string(u) + ".trace");
      std::ofstream out(path);
      trace::write_trace(out, study.trace(u));
    }
    std::printf("wrote %zu traces to %s\n", study.user_count(),
                export_dir.c_str());
  }
  if (flags.on("summary")) print_summary(study);
  if (flags.on("iou")) print_iou(study);
  if (export_dir.empty() && !flags.on("summary") && !flags.on("iou")) {
    std::printf("%s", flags.help().c_str());
  }
  return 0;
}
