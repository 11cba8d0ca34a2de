#!/usr/bin/env bash
# Builds the tree under sanitizers and runs the test suite under them. Any
# sanitizer report fails the run (-fno-sanitize-recover=all aborts on the
# first finding).
#
# Modes, selected by the VOLCAST_SANITIZE environment variable:
#   address;undefined   (default) full suite under ASan + UBSan
#   thread              TSan over the concurrent paths: the thread pool, the
#                       generator's sampling, the video-store build, shared
#                       workload bundles and fleets (ticks run serially, so
#                       the rest of the suite checks nothing concurrent and
#                       would cost hours under TSan), then the ThreadPool
#                       suite again, repeated until it fails, up to 50
#                       times, to catch a returning teardown race
#
#   tools/ci_sanitize.sh [build-dir]      # default: build-asan / build-tsan
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${VOLCAST_SANITIZE:-address;undefined}"

if [[ "$MODE" == "thread" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  TEST_FILTER=(-R 'ThreadPool|SessionParallel|Session|JointPredictor|VideoGenerator|VideoStore|Telemetry|ObsMetrics|Fleet|Supervisor|Checkpoint|Transport|TilingStage|WorkloadBundle|FrameSoA|Overload|LoadGovernor|Admission')
else
  BUILD_DIR="${1:-build-asan}"
  TEST_FILTER=()
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVOLCAST_SANITIZE="$MODE"
cmake --build "$BUILD_DIR" -j"$(nproc)"

cd "$BUILD_DIR"
ctest --output-on-failure -j"$(nproc)" "${TEST_FILTER[@]}"
if [[ "$MODE" == "thread" ]]; then
  ctest --output-on-failure -j"$(nproc)" -R '^ThreadPool\.' \
    --repeat until-fail:50
fi
