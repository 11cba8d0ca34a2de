#!/usr/bin/env bash
# Combined-fault soak: crash + burst-loss + CPU/memory pressure, all
# active at once over a supervised fleet with admission control and the
# overload governor enabled. Each fault path is tested
# alone elsewhere; this gate is for the *composition* — recovery machinery
# stepping on another fault's state is exactly the bug class unit tests
# miss.
#
# Two modes:
#
#   tools/ci_soak.sh /path/to/volcast_sim
#       drive an existing binary (what the `soak` ctest does: the binary in
#       the build tree already carries that build's sanitizer flags, so the
#       ASan/UBSan CI lane soaks under sanitizers for free)
#
#   tools/ci_soak.sh
#       no argument: configure + build a dedicated ASan/UBSan tree under
#       build-soak/ first (-fno-sanitize-recover=all, so the first finding
#       aborts), then soak that binary — the standalone entry point.
set -euo pipefail

cd "$(dirname "$0")/.."

SIM="${1:-}"
if [[ -z "$SIM" ]]; then
  BUILD_DIR=build-soak
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVOLCAST_SANITIZE="address;undefined"
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target volcast_sim_tool
  SIM="$BUILD_DIR/tools/volcast_sim"
fi
if [[ ! -x "$SIM" ]]; then
  echo "ci_soak: $SIM is not executable" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Supervised fleet under every chaos knob at once: injected crashes are
# retried, burst loss hammers the hybrid wire, pressure drives the
# brownout governor, and admission control turns a burst of arrivals into
# queue/deny decisions. Seeds vary so each round soaks a different plan.
run_round() {
  local seed="$1"
  "$SIM" \
    --fleet=6 --fleet-parallel=3 --fleet-retries=2 \
    --fleet-admission=4 --fleet-admission-queue=1 \
    --fleet-arrival-spacing=5 --fleet-arrival-burst=2 \
    --users=3 --duration=1.5 --points=30000 --frames=20 \
    --seed="$seed" --tile-cache --bundle \
    --overload --overload-encode-budget=250000 \
    --policy=transport=hybrid \
    --chaos --chaos-intensity=1.5 \
    --chaos-crash=0.6 --chaos-burst-loss=0.8 \
    --chaos-cpu-pressure=8 --chaos-mem-pressure=0.3
}

ROUNDS="${VOLCAST_SOAK_ROUNDS:-3}"
for ((i = 0; i < ROUNDS; i++)); do
  seed=$((1000 + i * 17))
  echo "=== soak round $((i + 1))/$ROUNDS (seed $seed) ==="
  run_round "$seed" | tee "$TMP/round$i.txt"
  # The fleet must have actually streamed: a report with zero supported
  # sessions in every round would mean the fault mix silently killed
  # everything and the soak is soaking nothing.
  grep -q '^fleet: 6 sessions' "$TMP/round$i.txt"
done

# Determinism under composition: the same seed must reproduce the same
# fleet report byte for byte even with every chaos knob active.
run_round 424242 > "$TMP/repeat_a.txt"
run_round 424242 > "$TMP/repeat_b.txt"
if ! diff -u "$TMP/repeat_a.txt" "$TMP/repeat_b.txt"; then
  echo "ci_soak: composed-fault fleet run is not deterministic" >&2
  exit 1
fi

echo "ci_soak: OK ($ROUNDS rounds + determinism repeat)"
