// Packet-wire microbenchmark: per-policy cost and recovery quality of the
// transport subsystem (src/transport). For each recovery policy the sweep
// pushes a fixed train population through `transmit_train` under a bursty
// loss mix and reports wire overhead (parity + retransmit + header bits
// over frame bits), residual loss after FEC, the failed-tile ratio and the
// NACK recovery-latency percentiles — the numbers behind the fec/nack/
// hybrid ablation. Stdout holds only these deterministic results, so two
// runs print the same bytes; the wall clock of each policy's sweep goes
// to stderr.
//
// `--json PATH` writes the machine-readable form consumed by
// tools/ci_bench.sh (merged into BENCH_scaling.json as the "transport"
// key; the `sweep_s` wall time participates in the regression gate).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/table.h"
#include "transport/wire.h"

using namespace volcast;
using namespace volcast::transport;

namespace {

constexpr std::uint32_t kTrains = 10'000;

TrainParams train_params(std::uint32_t tick) {
  TrainParams p;
  p.frame_bits = 1.5e6;  // ~6 tiles, ~144 data packets
  p.per = 0.02;
  // Burst chain on for a third of the trains — a loss mix rather than a
  // single operating point, so FEC and NACK both get exercised.
  p.burst_loss = (tick % 3 == 0) ? 0.5 : 0.0;
  p.deadline_ms = 12.0;
  p.seed = 4242;
  p.user = tick % 4;
  p.tick = tick;
  p.frame = static_cast<std::uint16_t>(tick % 30);
  return p;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepResult {
  double sweep_s = 0.0;       // best-of-3 wall clock of the train sweep
  double overhead_ratio = 0.0;  // extra wire bits / frame bits
  double residual_loss = 0.0;   // mean loss after FEC, before NACK
  double failed_tile_ratio = 0.0;
  double recovery_ms_p50 = 0.0;
  double recovery_ms_p99 = 0.0;
  double recovery_ms_max = 0.0;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

SweepResult sweep(TransportPolicy policy) {
  SweepResult out;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    // Fresh receiver lanes per repetition: identical work each time, so
    // the minimum is the stable estimator (noise only ever adds time).
    std::vector<ReceiverState> lanes(4);
    TransportReport report;
    std::vector<double> recovery;
    double frame_bits = 0.0, extra_bits = 0.0, failed = 0.0, tiles = 0.0;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t tick = 0; tick < kTrains; ++tick) {
      const TrainParams p = train_params(tick);
      const TrainResult r = transmit_train(policy, p, lanes[p.user]);
      report.add(r);
      if (r.recovery_ms > 0.0) recovery.push_back(r.recovery_ms);
      frame_bits += p.frame_bits;
      extra_bits += r.parity_bits + r.retransmit_bits + r.header_bits;
      failed += static_cast<double>(r.failed_tiles);
      tiles += static_cast<double>(r.tiles);
    }
    const double elapsed = seconds_since(t0);
    if (rep == 0 || elapsed < out.sweep_s) out.sweep_s = elapsed;
    if (rep == 0) {
      out.overhead_ratio = frame_bits > 0.0 ? extra_bits / frame_bits : 0.0;
      out.residual_loss = report.residual_loss_mean;
      out.failed_tile_ratio = tiles > 0.0 ? failed / tiles : 0.0;
      out.recovery_ms_p50 = percentile(recovery, 0.50);
      out.recovery_ms_p99 = percentile(recovery, 0.99);
      out.recovery_ms_max = recovery.empty()
                                ? 0.0
                                : *std::max_element(recovery.begin(),
                                                    recovery.end());
    }
  }
  return out;
}

int run(const char* json_path) {
  std::FILE* out = nullptr;
  if (json_path != nullptr) {
    out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_transport: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"transport\",\n"
                 "  \"config\": {\"trains\": %u, \"frame_bits\": 1500000, "
                 "\"per\": 0.02, \"burst_loss\": 0.5, \"deadline_ms\": "
                 "12.0},\n  \"policies\": [",
                 kTrains);
  }

  AsciiTable table;
  table.header({"policy", "overhead", "residual loss",
                "failed tiles", "rec p50 ms", "rec p99 ms", "rec max ms"});
  bool first = true;
  for (const TransportPolicy policy :
       {TransportPolicy::kFec, TransportPolicy::kNack,
        TransportPolicy::kHybrid}) {
    const SweepResult r = sweep(policy);
    if (out != nullptr) {
      std::fprintf(out,
                   "%s\n    {\"policy\": \"%s\", \"sweep_s\": %.4f, "
                   "\"overhead_ratio\": %.4f, \"residual_loss\": %.5f, "
                   "\"failed_tile_ratio\": %.5f, \"recovery_ms_p50\": %.2f, "
                   "\"recovery_ms_p99\": %.2f, \"recovery_ms_max\": %.2f}",
                   first ? "" : ",", to_string(policy), r.sweep_s,
                   r.overhead_ratio, r.residual_loss, r.failed_tile_ratio,
                   r.recovery_ms_p50, r.recovery_ms_p99, r.recovery_ms_max);
      first = false;
    }
    std::fprintf(stderr, "bench_transport: %s sweep %.3f s\n",
                 to_string(policy), r.sweep_s);
    table.row({to_string(policy),
               AsciiTable::num(100.0 * r.overhead_ratio, 1) + "%",
               AsciiTable::num(r.residual_loss, 4),
               AsciiTable::num(100.0 * r.failed_tile_ratio, 2) + "%",
               AsciiTable::num(r.recovery_ms_p50, 1),
               AsciiTable::num(r.recovery_ms_p99, 1),
               AsciiTable::num(r.recovery_ms_max, 1)});
  }
  if (out != nullptr) {
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
  }
  std::printf("=== Packet wire: %u trains per policy ===\n\n", kTrains);
  std::printf("%s", table.render().c_str());
  if (json_path != nullptr) std::printf("wrote %s\n", json_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0) return run(argv[2]);
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
    return 2;
  }
  return run(nullptr);
}
