#!/usr/bin/env bash
# Pre-merge gate: tier-1 correctness plus a sanitizer pass over every test.
#
#   0. Fail if getenv appears under src/ outside src/measure/.
#   1. Configure+build the `default` preset and run the full test suite
#      (the tier-1 bar: everything must pass), then every bench's --smoke.
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

  # Each bench's --smoke gate THINC_CHECKs the invariants its header
  # comment lists and exits non-zero when one breaks (set -e stops here).
  for bench in micro fleet_capacity transport simcore cluster codec devices; do
    echo "== smoke: bench_$bench --smoke =="
    "./build/bench/bench_$bench" --smoke
  done
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
