#!/usr/bin/env bash
# Pre-merge gate: tier-1 correctness plus a sanitizer pass over every test.
#
#   0. Fail if getenv appears under src/ outside src/measure/.
#   1. Configure+build the `default` preset and run the full test suite
#      (the tier-1 bar: everything must pass), then the bench smokes.
#   2. Configure+build the `sanitize` preset (ASan+UBSan, build-asan/) and
#      run the full test suite again under the sanitizers.
#
# Usage: scripts/check.sh [--sanitize-only | --tier1-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_TIER1=1
RUN_SANITIZE=1
case "${1:-}" in
  --sanitize-only) RUN_TIER1=0 ;;
  --tier1-only) RUN_SANITIZE=0 ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--sanitize-only | --tier1-only]" >&2; exit 2 ;;
esac

# Run-time switches stay out of the simulator core: an environment variable
# may select bench inputs (src/measure/), never simulated behaviour.
echo "== gate: no getenv under src/ outside src/measure/ =="
if grep -rn --include='*.cc' --include='*.h' 'getenv' src | grep -v '^src/measure/'; then
  echo "check.sh: getenv outside src/measure/ (listed above)" >&2
  exit 1
fi

if [[ "$RUN_TIER1" == 1 ]]; then
  echo "== tier-1: default preset build + full ctest =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS"
  ctest --preset default

  # Telemetry smoke: bench_micro's non-benchmark sections run a web workload
  # with all telemetry facilities off and again with them on, and THINC_CHECK
  # that wire bytes, virtual end time, and applied commands are identical —
  # the "telemetry can never change results" invariant, end to end.
  echo "== telemetry smoke: bench_micro invariant sections =="
  ./build/bench/bench_micro --benchmark_filter='^$'

  # Fleet smoke: an 8-session multi-tenant host run twice, with telemetry
  # fully off and fully on; THINC_CHECKs that wire bytes and virtual end
  # time are identical (shared-CPU/NIC arbitration must be unperturbed).
  echo "== fleet smoke: bench_fleet_capacity --smoke =="
  ./build/bench/bench_fleet_capacity --smoke

  # Transport smoke: a co-located web run over the loopback transport;
  # THINC_CHECKs that frame payload moved by reference (payload bytes > 0
  # with ZERO memcpy'd payload bytes — the zero-copy handoff gate).
  echo "== transport smoke: bench_transport --smoke =="
  ./build/bench/bench_transport --smoke

  # Simulator-core smoke: the lazy-delete heap queue must fire the exact
  # transcript of the std::map baseline on churn and cancel-heavy workloads,
  # and clear >= 2x the map's events/sec when cancels dominate.
  echo "== simcore smoke: bench_simcore --smoke =="
  ./build/bench/bench_simcore --smoke

  # Cluster smoke: a 2-host skewed cluster run twice (telemetry off, then
  # spans on); THINC_CHECKs that the migration schedule, per-session bytes,
  # framebuffer hashes, and virtual end time are identical across reruns,
  # that at least one live migration completes with zero lost updates, and
  # that blackout p95 stays under the full-refresh handoff bound.
  echo "== cluster smoke: bench_cluster --smoke =="
  ./build/bench/bench_cluster --smoke

  # Codec smoke: a WAN desktop-repaint run with adaptive selection off, then
  # on; THINC_CHECKs that the delta rung engages (hits > 0), that both arms
  # deliver pixel-exact framebuffers, and that delta moves fewer wire bytes
  # than intra at equal fidelity.
  echo "== codec smoke: bench_codec --smoke =="
  ./build/bench/bench_codec --smoke

  # Device smoke: the trace-driven device-class table run twice; THINC_CHECKs
  # that the JSON is byte-identical across reruns (determinism over lossy
  # paths included), that the phone negotiated its panel viewport, and that
  # its Gilbert-Elliott WAN path actually dropped segments.
  echo "== device smoke: bench_devices --smoke =="
  ./build/bench/bench_devices --smoke
fi

if [[ "$RUN_SANITIZE" == 1 ]]; then
  echo "== sanitize: ASan+UBSan over the full test suite =="
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j "$JOBS"
  ctest --preset sanitize
fi

# Informational, not a gate: SLOC per src/ module and the total.
echo "== sloc: scripts/sloc.sh =="
scripts/sloc.sh

echo "check.sh: all gates passed"
