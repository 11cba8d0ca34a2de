#!/usr/bin/env bash
# Builds the tree with VOLCAST_NATIVE=ON (-march=native: host SIMD and, on
# hosts that have it, FMA contraction) and runs the library-internal
# bit-equality suites. Those compare two code paths compiled in the same
# build (the link table against rss_dbm, array_gains against
# Steering::gain, cached sector picks against Codebook's, the cell lookup
# and transform kernels against scalar locate and Quat::rotate, the store
# build against thin/assign/encode, encoded_size against encode), so they
# must hold under host-tuned codegen too.
#
# The rest of the suite is not run here: the session goldens
# (Threads/RefactorEquivalence.*) were computed with portable codegen, and
# under FMA contraction the sessions differ in the last bits, by design.
#
#   tools/ci_native.sh [build-dir]      # default: build-native
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-native}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DVOLCAST_NATIVE=ON \
  -DVOLCAST_BUILD_BENCH=OFF -DVOLCAST_BUILD_EXAMPLES=OFF \
  -DVOLCAST_BUILD_TOOLS=OFF >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target volcast_tests

cd "$BUILD_DIR"
# Plain and parameterized (Prefix/Suite.Test/N) names of each suite.
suites='LinkTable|LinkTableRss|LinkTableBound|LinkTableDesigns|MultiApTables'
suites+='|ArrayGains|Codebook|BeamDesigner|TickLinks'
suites+='|CellGridLocate|Codec|CodecSizeSweep|RangeCoder|VideoStore'
suites+='|VideoStoreFusedBuild|VideoStoreEncoder|VideoStorePositions'
suites+='|VideoStoreOccupancy'
ctest --output-on-failure -j"$(nproc)" --no-tests=error -R "(^|/)($suites)\."
