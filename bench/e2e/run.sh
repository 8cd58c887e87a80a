#!/usr/bin/env bash
# The end-to-end PEMS benchmark (bench/e2e/README.md). Run it from the
# repository root:
#
#   bench/e2e/run.sh [--seed=N]                  # all four workloads
#   bench/e2e/run.sh --workload firehose --seed 3 --seconds 28 --trace 0
#   bench/e2e/run.sh --trace                     # per-layer metrics + traces
#   bench/e2e/run.sh --smoke                     # 1/50 scale, under 10 s
#   bench/e2e/run.sh --compare=A.json,B.json
#
# It builds libserena from this tree and the benchmark executable into
# build-e2e/ (Release only), then hands over to harness.py. Build output
# goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

for arg in "$@"; do
  case "$arg" in
    --compare=*) exec python3 "$here/harness.py" "$@" ;;
  esac
done

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
exec python3 "$here/harness.py" "$@"
