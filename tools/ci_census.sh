#!/usr/bin/env bash
# Function census: lists every src/ function that a realistic drive of the
# tree never calls. Candidates for deletion, for a test helper, or for a
# run that should reach them.
#
# Builds an instrumented tree (--coverage, -O0 so no function is inlined
# away from its own counters) with the stage-ledger target injected through
# bench/ledger/targets.cmake, then drives it twice:
#   1. every shipped entry point, as it is run: the ledger's --smoke pass
#      on every workload (untraced and traced); the paper, ablation and
#      system benches with no arguments (bench_micro is left out: it
#      times library kernels, including test references, rather than
#      using them); every example; volcast_sim with telemetry, with two
#      APs, under chaos, as a crash-prone fleet whose slots retry and
#      quarantine, as an admission-controlled fleet that queues and
#      denies slots (the example.fleet_admission command line), and
#      replaying traces volcast_trace exported;
#      volcast_trace summarizing the telemetry the drive wrote; and
#      tools/smoke_fleet_resume.sh (fleet checkpoint, kill and resume).
#      Its wall time is printed;
#   2. the whole ctest suite (a failing test is reported; the census goes
#      on).
# It lists the src/ functions neither drive calls, then those only the
# tests call. A function is counted once per definition, keyed by its file
# and start line: every instance of a template is the same code. It counts
# as called when any translation unit that emits it called any of its
# instances (inline and template functions are emitted per unit).
# Functions no unit emits (never odr-used) are invisible to gcov.
#
#   tools/ci_census.sh [build-dir]     # default: build-census
#
# Uses raw gcov (JSON output) and a python3 merge, like ci_coverage.sh's
# fallback, so it runs on a bare toolchain image. Prints both lists by
# file, then a summary line. Exits 1 when a never-called function is not
# on the keep list below (each entry says why it stays), else 0.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
BUILD_DIR="${1:-build-census}"

# The ledger refuses non-Release builds, so this is a Release build type
# with the optimizer off.
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O0 -DNDEBUG" \
  -DCMAKE_CXX_FLAGS="--coverage" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
  -DCMAKE_PROJECT_volcast_INCLUDE="$ROOT/bench/ledger/targets.cmake" \
  >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"

DRIVE="$BUILD_DIR/census-drive"
GCOV_DIR="$BUILD_DIR/census-gcov"
rm -rf "$DRIVE" "$GCOV_DIR"
mkdir -p "$DRIVE" "$GCOV_DIR/program" "$GCOV_DIR/tests"

# gcov_reports DIR: one JSON report per translation unit that ran, into
# DIR (-p keeps the names distinct), then zeroes the counts for the next
# drive.
gcov_reports() {
  find "$BUILD_DIR" -name '*.gcda' -print0 |
    (cd "$1" && xargs -0 -r -n 64 gcov --json-format -p >/dev/null 2>&1)
  find "$BUILD_DIR" -name '*.gcda' -delete
}

# Zero out counts from previous runs so the census reflects these drives.
find "$BUILD_DIR" -name '*.gcda' -delete

# Drive 1: every shipped entry point, as it is run.
DRIVE_START=$SECONDS
for workload in crowd16 surround_wire unicast_short; do
  "$BUILD_DIR/volcast_ledger" --smoke --workload="$workload" --trace=1 \
    --out="$DRIVE/ledger" >/dev/null
done
for bench in bench_table1 bench_fig2_viewport_similarity \
    bench_fig3b_default_codebook bench_fig3d_custom_beams \
    bench_fig3e_multicast_throughput bench_ablation_beam_tracking \
    bench_ablation_prediction bench_ablation_grouping \
    bench_ablation_rate_adaptation bench_system_scaling bench_fleet \
    bench_tile_cache bench_transport bench_overload; do
  "$BUILD_DIR/bench/$bench" >/dev/null
done
for example in quickstart classroom sports_bar telepresence beam_explorer; do
  "$BUILD_DIR/examples/$example" >/dev/null
done
SIM="$BUILD_DIR/tools/volcast_sim"
TRACE="$BUILD_DIR/tools/volcast_trace"
"$SIM" --users=6 --duration=2 --points=30000 \
  --telemetry="$DRIVE/telemetry.jsonl" >/dev/null
"$SIM" --users=8 --aps=2 --spread=6.28 --duration=2 --points=30000 >/dev/null
"$SIM" --users=6 --aps=2 --chaos --duration=2 --points=30000 >/dev/null
"$SIM" --fleet=4 --fleet-parallel=1 --chaos --chaos-crash=0.5 \
  --fleet-retries=1 --users=2 --duration=1 --points=30000 --frames=20 \
  --threads=1 --seed=11 >/dev/null
"$SIM" --fleet=6 --fleet-admission=2 --fleet-admission-queue=1 \
  --fleet-arrival-spacing=3 --fleet-parallel=1 --users=2 --duration=1 \
  --points=30000 --frames=20 --threads=1 >/dev/null
"$TRACE" --export="$DRIVE/traces" --users=4 --samples=120 >/dev/null
"$SIM" --users=4 --replay="$DRIVE/traces" --duration=2 --points=30000 \
  >/dev/null
"$TRACE" summarize "$DRIVE/telemetry.jsonl" >/dev/null
tools/smoke_fleet_resume.sh "$SIM" >/dev/null
echo "ci_census: program drive took $((SECONDS - DRIVE_START)) s"
gcov_reports "$GCOV_DIR/program"

# Drive 2: the whole test suite.
(cd "$BUILD_DIR" && ctest -j"$(nproc)" --no-tests=error >"$DRIVE/ctest.log" 2>&1) ||
  echo "ci_census: ctest reported failures (see $DRIVE/ctest.log)" >&2
gcov_reports "$GCOV_DIR/tests"

GCOV_DIR="$GCOV_DIR" SRC="$ROOT/src/" python3 - <<'PYEOF'
import glob, gzip, json, os, sys

gcov_dir = os.environ["GCOV_DIR"]
src = os.environ["SRC"]

names = {}  # (file, start line) -> the names its instances carry

# Never-called src/ functions that stay on purpose: (file prefix, name
# fragment, reason). Any other never-called function fails the census.
KEEP_NEVER_CALLED = [
    ("src/core/stages/", "::name() const",
     "Stage::name() overrides: the stage taxonomy of ROADMAP item 8, and "
     "test_stage_registry.cpp checks name()"),
    ("src/geometry/vec3.h", "operator<<",
     "gtest prints a failing EXPECT_EQ on Vec3 through it"),
]

def kept(key):
    rel, _ = key
    return any(rel.startswith(prefix) and
               any(fragment in name for name in names[key])
               for prefix, fragment, _ in KEEP_NEVER_CALLED)

def calls(drive):
    """(file, start line) -> called in any unit, over src/ functions."""
    called = {}
    for report in glob.glob(os.path.join(gcov_dir, drive, "*.gcov.json.gz")):
        with gzip.open(report, "rt") as f:
            data = json.load(f)
        cwd = data.get("current_working_directory", "")
        for entry in data.get("files", []):
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src):
                continue
            rel = "src/" + path[len(src):]
            for fn in entry.get("functions", []):
                key = (rel, fn["start_line"])
                names.setdefault(key, set()).add(
                    fn.get("demangled_name") or fn["name"])
                called[key] = (called.get(key, False)
                               or fn["execution_count"] > 0)
    return called

program = calls("program")
tests = calls("tests")
every = set(program) | set(tests)
if not every:
    sys.exit("ci_census: no src/ functions in the gcov output")

def report(title, keys):
    print(title)
    current = None
    for rel, line in sorted(keys):
        if rel != current:
            print(f"  {rel}")
            current = rel
        instances = sorted(names[(rel, line)], key=lambda n: (len(n), n))
        more = (f"  (+{len(instances) - 1} more instances)"
                if len(instances) > 1 else "")
        print(f"    {line:5d}  {instances[0]}{more}")

never = [k for k in every if not program.get(k) and not tests.get(k)]
test_only = [k for k in every if not program.get(k) and tests.get(k)]
report("never called:", never)
report("called only by tests:", test_only)
print(f"ci_census: {len(every)} src/ functions; "
      f"{len(every) - len(never) - len(test_only)} called by the program, "
      f"{len(test_only)} only by tests, {len(never)} never")
unexpected = [k for k in never if not kept(k)]
if unexpected:
    report("ci_census: never called and not on the keep list "
           "(delete, call, or keep with a reason):", unexpected)
    sys.exit(1)
PYEOF
