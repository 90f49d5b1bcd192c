#!/usr/bin/env bash
# Build the benches in Release and run the micro benches, leaving their
# BENCH_*.json data files (plus .metrics.json sidecars) in the repo root.
# Uses a separate build directory so the default build/ keeps its
# configuration.
#
#   scripts/bench.sh                 # all micro benches
#   scripts/bench.sh micro_late_mat  # just one
#   BUILD_DIR=out-release scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-release}"
BENCHES=("$@")
if [ "${#BENCHES[@]}" -eq 0 ]; then
  BENCHES=(micro_parallel_scan micro_container_overhead micro_late_mat
           micro_simd_kernels micro_prefetch micro_trace_overhead
           ab_admission ab_pushdown ab_ingest)
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target "${BENCHES[@]}" -j "$(nproc)"

status=0
for b in "${BENCHES[@]}"; do
  echo "=== $b ==="
  # Benches exit 2 when their shape check fails; keep running the rest.
  "$BUILD_DIR/bench/$b" || status=$?
done
exit "$status"
