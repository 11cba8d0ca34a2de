#!/usr/bin/env bash
# Stage ledger: builds volcast_ledger (Release) from the source tree this
# script sits in, then runs it.
#
#   bench/ledger/run.sh [--seed=S] [--seconds=T] [--out=DIR] [--trace=0]
#       every workload, each in its own process, untraced and traced
#       passes (--trace=0: untraced only); exits 1 if any check fails
#   bench/ledger/run.sh --smoke
#       1 session x 1 s per workload, both passes, every check
#   bench/ledger/run.sh --workload NAME --seed S --seconds T --trace 0|1
#       one workload; the last stdout line is the JSON result
#
# The build lives in .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

workloads=(crowd16 surround_wire unicast_short)
workload=""
pass_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload=*) workload="${1#*=}" ;;
    --workload) workload="${2:?--workload needs a value}"; shift ;;
    --seed=* | --seconds=* | --trace=* | --out=*) pass_args+=("$1") ;;
    --seed | --seconds | --trace | --out)
      pass_args+=("$1=${2:?$1 needs a value}"); shift ;;
    --smoke) pass_args+=("$1") ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no volcast source tree at $root (CMakeLists.txt and src/" \
       "are missing); nothing to build" >&2
  exit 2
fi

build=.bench_build
log="$build/ledger-build.log"
mkdir -p "$build"
if ! {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_PROJECT_volcast_INCLUDE="$root/bench/ledger/targets.cmake" \
      -DVOLCAST_BUILD_TESTS=OFF -DVOLCAST_BUILD_BENCH=OFF \
      -DVOLCAST_BUILD_EXAMPLES=OFF -DVOLCAST_BUILD_TOOLS=OFF
  fi
  cmake --build "$build" --target volcast_ledger -j 4
} >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 2
fi

git_rev=unknown
if [[ -d .git ]]; then
  git_rev="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
ledger=("$build/volcast_ledger" "--git-rev=$git_rev")

if [[ -n "$workload" ]]; then
  exec "${ledger[@]}" "--workload=$workload" "${pass_args[@]}"
fi

status=0
for w in "${workloads[@]}"; do
  if ! "${ledger[@]}" "--workload=$w" --trace=1 "${pass_args[@]}"; then
    echo "run.sh: $w failed" >&2
    status=1
  fi
done
exit "$status"
