#!/usr/bin/env bash
# Builds every target with VOLCAST_NATIVE=ON (-march=native: host SIMD, and
# FMA instructions on hosts that have them) and VOLCAST_WERROR=ON (a
# warning in any target fails the build), then runs the whole test suite.
# The build never contracts a * b + c into an FMA (-ffp-contract=off for
# every target, CMakeLists.txt), so host-tuned codegen must give the same
# bits as the portable build: the library's bit-equality suites and the
# session goldens all hold here too.
#
#   tools/ci_native.sh [build-dir]      # default: build-native
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-native}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DVOLCAST_NATIVE=ON \
  -DVOLCAST_WERROR=ON -DVOLCAST_BUILD_BENCH=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"

cd "$BUILD_DIR"
ctest --output-on-failure -j"$(nproc)" --no-tests=error
