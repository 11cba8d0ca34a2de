#!/usr/bin/env bash
# Runs the benchmark suite and refreshes the perf-trajectory files at the
# repo root (BENCH_micro.json / BENCH_scaling.json), then compares the
# fresh numbers against the baselines committed at HEAD: any shared
# benchmark that slowed down by more than the tolerance fails the run.
#
#   tools/ci_bench.sh [build-dir]      # default: build-bench
#
# Benchmarks are built Release in their own tree (default build-bench, so
# the developer build directory keeps its own configuration): gating wall
# clock on a debug build measures the sanitizer/assert tax, not the code.
#
# Environment:
#   VOLCAST_BENCH_TOLERANCE   allowed fractional slowdown (default 0.20)
#   VOLCAST_BENCH_NO_CHECK=1  refresh the JSON files, skip the comparison
#                             (use when intentionally re-baselining)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target bench_micro bench_system_scaling bench_fleet bench_transport \
           bench_tile_cache

# Repetitions + median: single-shot times on a shared box swing well past
# any useful tolerance; the median of 5 is stable enough to gate on.
"$BUILD_DIR"/bench/bench_micro \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_micro.json --benchmark_out_format=json
"$BUILD_DIR"/bench/bench_system_scaling --json BENCH_scaling.json
"$BUILD_DIR"/bench/bench_fleet --json BENCH_fleet.tmp.json
"$BUILD_DIR"/bench/bench_transport --json BENCH_transport.tmp.json
"$BUILD_DIR"/bench/bench_tile_cache --json BENCH_tile_cache.tmp.json

# Fold the fleet and transport sweeps into BENCH_scaling.json ("fleet" /
# "transport" keys) and stamp the machine context the numbers were taken
# on — num_cpus, volcast's build type, compiler, flags and the
# VOLCAST_NATIVE knob — so one committed file carries the whole scaling
# trajectory and a baseline from a different box, build type or tuning
# level is recognisable as such. BENCH_micro.json gets the same
# volcast_build_type key: its own "library_build_type" is the build type of
# the Google Benchmark library, not of volcast.
# A rolling "history" list carries the committed runs' run_speedup at 8
# users forward, so before/after of a perf-focused change stays in the file.
# On a 1-CPU host parallel and serial runs share one core, so speedups are
# noise there: they are neither recorded nor gated.
BENCH_BUILD_DIR="$BUILD_DIR" python3 - <<'EOF'
import json, os, re, subprocess
with open("BENCH_scaling.json") as f:
    doc = json.load(f)
with open("BENCH_fleet.tmp.json") as f:
    doc["fleet"] = json.load(f)
with open("BENCH_transport.tmp.json") as f:
    doc["transport"] = json.load(f)
with open("BENCH_tile_cache.tmp.json") as f:
    doc["tile_cache"] = json.load(f)

def cache_var(cache, name):
    m = re.search(rf"^{name}:[^=]+=(.*)$", cache, re.M)
    return m.group(1) if m and m.group(1) else None

cache = ""
try:
    with open(os.path.join(os.environ["BENCH_BUILD_DIR"],
                           "CMakeCache.txt")) as f:
        cache = f.read()
except OSError:
    pass
build_type = cache_var(cache, "CMAKE_BUILD_TYPE") or "unknown"
flags = " ".join(filter(None, [
    cache_var(cache, "CMAKE_CXX_FLAGS"),
    cache_var(cache, f"CMAKE_CXX_FLAGS_{build_type.upper()}")])).strip()
doc["context"] = {
    "num_cpus": os.cpu_count(),
    "volcast_build_type": build_type,
    "compiler": cache_var(cache, "CMAKE_CXX_COMPILER") or "unknown",
    "cxx_flags": flags,
    "volcast_native": cache_var(cache, "VOLCAST_NATIVE") == "ON",
}

def multi_cpu(context):
    return context.get("num_cpus") != 1

if not multi_cpu(doc["context"]):
    for e in doc.get("throughput", []):
        e.pop("run_speedup", None)
    for e in doc.get("fleet", {}).get("scaling", []):
        e.pop("speedup", None)

with open("BENCH_micro.json") as f:
    micro = json.load(f)
micro.setdefault("context", {})["volcast_build_type"] = build_type
with open("BENCH_micro.json", "w") as f:
    json.dump(micro, f, indent=2)
    f.write("\n")

def committed_scaling():
    try:
        out = subprocess.run(["git", "show", "HEAD:BENCH_scaling.json"],
                             capture_output=True, check=True)
        return json.loads(out.stdout)
    except (subprocess.CalledProcessError, json.JSONDecodeError):
        return None

prev = committed_scaling()
history = [h for h in (prev or {}).get("history", [])
           if multi_cpu(h.get("context", {}))]
if prev is not None and multi_cpu(prev.get("context", {})):
    speedup8 = next((e.get("run_speedup") for e in prev.get("throughput", [])
                     if e.get("users") == 8), None)
    if speedup8 is not None:
        history.append({"run_speedup_8": speedup8,
                        "context": prev.get("context", {})})
doc["history"] = history[-20:]
with open("BENCH_scaling.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
rm -f BENCH_fleet.tmp.json BENCH_transport.tmp.json BENCH_tile_cache.tmp.json

if [[ "${VOLCAST_BENCH_NO_CHECK:-0}" == "1" ]]; then
  echo "ci_bench: baseline check skipped (VOLCAST_BENCH_NO_CHECK=1)"
  exit 0
fi

python3 - <<'EOF'
import json, os, subprocess, sys

tol = float(os.environ.get("VOLCAST_BENCH_TOLERANCE", "0.20"))

# Build-type guard: a debug-built library produced the stale 0.76-1.01x
# run_speedup baselines this file once carried — never let non-Release
# numbers gate (or seed) the trajectory again. The key is volcast's own
# CMAKE_BUILD_TYPE, stamped into both files above.
for path in ("BENCH_scaling.json", "BENCH_micro.json"):
    with open(path) as f:
        build_type = json.load(f).get("context", {}).get("volcast_build_type")
    if build_type != "Release":
        print(f"ci_bench: FAIL — {path} was measured on a '{build_type}' "
              f"volcast build; only Release numbers may gate or seed the "
              f"baselines")
        sys.exit(1)

def committed(path):
    """The baseline committed at HEAD, or None when this run seeds it."""
    try:
        out = subprocess.run(["git", "show", f"HEAD:{path}"],
                             capture_output=True, check=True)
        return json.loads(out.stdout)
    except (subprocess.CalledProcessError, json.JSONDecodeError):
        return None

fails = []

base = committed("BENCH_micro.json")
if base is None:
    print("ci_bench: no committed BENCH_micro.json baseline, seeding it")
else:
    with open("BENCH_micro.json") as f:
        cur = json.load(f)
    # Median cpu_time: cpu_time ignores preemption on a shared box,
    # the median ignores the odd slow repetition. cpu_time is the main
    # thread's alone, so the set-up benches that run on a 2- or 4-lane pool
    # gate on real_time instead: work moved to the other lanes shows there.
    pooled = {f"{family}/{lanes}"
              for family in ("BM_VideoGenerator", "BM_VideoStoreBuild",
                             "BM_WorkloadBundleBuild")
              for lanes in (2, 4)}
    def medians(doc):
        out = {}
        for b in doc.get("benchmarks", []):
            if b.get("aggregate_name") == "median":
                name = b.get("run_name", b["name"])
                key = "real_time" if name in pooled else "cpu_time"
                out[name] = b.get(key, b.get("real_time", 0.0))
        return out
    ref = medians(base)
    for name, t in medians(cur).items():
        old = ref.get(name)
        if old and old > 0:
            ratio = t / old
            if ratio > 1 + tol:
                fails.append(f"micro {name}: {ratio:.2f}x baseline")

base = committed("BENCH_scaling.json")
if base is None:
    print("ci_bench: no committed BENCH_scaling.json baseline, seeding it")
else:
    with open("BENCH_scaling.json") as f:
        cur = json.load(f)
    ref = {e["users"]: e for e in base.get("throughput", [])}
    for e in cur.get("throughput", []):
        old = ref.get(e["users"])
        if not old:
            continue
        for key in ("serial_run_s", "parallel_run_s"):
            # Entries under a quarter second are dominated by scheduler
            # noise, not by the pipeline — only the longer runs gate.
            if old.get(key, 0) >= 0.25:
                ratio = e[key] / old[key]
                if ratio > 1 + tol:
                    fails.append(
                        f"scaling users={e['users']} {key}: "
                        f"{ratio:.2f}x baseline")
    # Scaling gate: run_speedup at 8 users may not drop below the
    # committed baseline (minus tolerance). Ticks run serially at any
    # worker count, so it should read about 1.0; a drop means the 8-worker
    # session got slower than the 1-worker one. Same-host numbers only: a
    # different core count measures a different machine, not a regression,
    # and a single core has no parallel speedup to measure.
    num_cpus = cur.get("context", {}).get("num_cpus")
    if num_cpus != 1 and base.get("context", {}).get("num_cpus") == num_cpus:
        def speedup8(doc):
            return next((e.get("run_speedup")
                         for e in doc.get("throughput", [])
                         if e.get("users") == 8), None)
        base8, cur8 = speedup8(base), speedup8(cur)
        if base8 and cur8 and cur8 < base8 * (1 - tol):
            fails.append(
                f"scaling users=8 run_speedup: {cur8:.3f} dropped below "
                f"baseline {base8:.3f} (-{(1 - cur8 / base8):.0%})")
    transport_ref = {e["policy"]: e
                     for e in base.get("transport", {}).get("policies", [])}
    for e in cur.get("transport", {}).get("policies", []):
        old = transport_ref.get(e["policy"])
        if not old:
            continue
        if old.get("sweep_s", 0) >= 0.25:
            ratio = e["sweep_s"] / old["sweep_s"]
            if ratio > 1 + tol:
                fails.append(
                    f"transport policy={e['policy']} sweep_s: "
                    f"{ratio:.2f}x baseline")
    fleet_ref = {e["sessions"]: e
                 for e in base.get("fleet", {}).get("scaling", [])}
    for e in cur.get("fleet", {}).get("scaling", []):
        old = fleet_ref.get(e["sessions"])
        if not old:
            continue
        for key in ("serial_s", "parallel_s", "supervised_s"):
            if old.get(key, 0) >= 0.25:
                ratio = e[key] / old[key]
                if ratio > 1 + tol:
                    fails.append(
                        f"fleet sessions={e['sessions']} {key}: "
                        f"{ratio:.2f}x baseline")
    # Setup amortization: the shared-WorkloadBundle acceptance bar. An
    # 8-slot fleet's total setup (bundle build + 8 bundled constructions)
    # must stay within 1.5x one session's setup — the absolute gate — and
    # the timed entries also ride the usual wall-clock tolerance.
    cur_setup = cur.get("fleet", {}).get("setup", {})
    if cur_setup:
        if cur_setup["amortization_8"] > 1.5:
            fails.append(
                f"fleet setup amortization_8: "
                f"{cur_setup['amortization_8']:.2f}x > 1.5x single-session "
                f"setup (lost the shared-bundle win)")
        ref_setup = base.get("fleet", {}).get("setup", {})
        for key in ("single_s", "shared8_s"):
            if ref_setup.get(key, 0) >= 0.25:
                ratio = cur_setup[key] / ref_setup[key]
                if ratio > 1 + tol:
                    fails.append(
                        f"fleet setup {key}: {ratio:.2f}x baseline")
    # Tiling: encode_ratio is a deterministic logical quantity (first-touch
    # accounting), so it gates exactly — any drift is a behavior change,
    # not noise. Wall clock gates like the other suites, on entries long
    # enough to measure.
    tile_ref = {(e["users"], e["spread_rad"]): e
                for e in base.get("tile_cache", {}).get("sessions", [])}
    for e in cur.get("tile_cache", {}).get("sessions", []):
        old = tile_ref.get((e["users"], e["spread_rad"]))
        if not old:
            continue
        if abs(e["encode_ratio"] - old["encode_ratio"]) > 1e-9:
            fails.append(
                f"tile_cache users={e['users']} "
                f"spread={e['spread_rad']} encode_ratio: "
                f"{e['encode_ratio']:.4f} vs baseline "
                f"{old['encode_ratio']:.4f}")
        for key in ("off_s", "shared_s"):
            if old.get(key, 0) >= 0.25:
                ratio = e[key] / old[key]
                if ratio > 1 + tol:
                    fails.append(
                        f"tile_cache users={e['users']} "
                        f"spread={e['spread_rad']} {key}: "
                        f"{ratio:.2f}x baseline")
        if e["users"] == 8 and e["spread_rad"] <= 1.5:
            # The tiling acceptance bar: 8 users in <= 2 viewport
            # clusters must encode >= 2x cheaper per user.
            if e["encode_ratio"] > 0.5:
                fails.append(
                    f"tile_cache users=8 clustered: encode_ratio "
                    f"{e['encode_ratio']:.3f} > 0.5 (lost the 2x win)")

if fails:
    print(f"ci_bench: FAIL — regressions beyond +{tol:.0%}:")
    for f in fails:
        print(f"  {f}")
    sys.exit(1)
print(f"ci_bench: OK — no regression beyond +{tol:.0%} vs HEAD baselines")
EOF
