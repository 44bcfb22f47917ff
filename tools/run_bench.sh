#!/usr/bin/env bash
# Runs every bench binary and checks what they wrote.
#
#   tools/run_bench.sh [BUILD_DIR]          full run into BUILD_DIR/bench-results
#   tools/run_bench.sh --smoke [BUILD_DIR]  tiny problem sizes into a temp dir
#                                           (the `bench_smoke` ctest)
#
# Each bench writes BENCH_<bench>.json; tools/check_bench.py then validates
# every document, stamps it with the host context, checks EXPERIMENTS.md
# against the committed records and, on a full run, applies
# bench/gates.json and compares each record with the committed
# BENCH_<bench>.json at the repo root. Neither mode writes into the source
# tree: adopting a full run means copying its files over the committed ones.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SMOKE=0
BUILD_DIR="$ROOT/build"
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    -h|--help) sed -n '2,14p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

BENCHES=(table1_loc fig5_spmv_hybrid fig6_dynamic_selection fig7_ode_overhead
         task_overhead memory_overlap predict_accuracy scheduler_lookahead
         distributed_scaling ablation_containers ablation_history
         ablation_calibration ablation_energy)
for bench in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/bench_$bench" ]]; then
    echo "error: $BUILD_DIR/bench/bench_$bench not built" \
         "(cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

if [[ "$SMOKE" == 1 ]]; then
  OUT_DIR="$(mktemp -d)"
  trap 'rm -rf "$OUT_DIR"' EXIT
  FLAGS=(--smoke)
  GBENCH_FLAGS=(--benchmark_min_time=0.01 --benchmark_context=smoke=true)
else
  OUT_DIR="$BUILD_DIR/bench-results"
  mkdir -p "$OUT_DIR"
  rm -f "$OUT_DIR"/BENCH_*.json
  FLAGS=()
  # Five repetitions: check_bench.py records each benchmark's median and
  # the spread between its fastest and slowest repetition.
  GBENCH_FLAGS=(--benchmark_min_time=0.5 --benchmark_repetitions=5)
fi

for bench in "${BENCHES[@]}"; do
  out="$OUT_DIR/BENCH_$bench.json"
  if [[ "$bench" == task_overhead ]]; then
    "$BUILD_DIR/bench/bench_$bench" "${GBENCH_FLAGS[@]}" \
      "--benchmark_out=$out" --benchmark_out_format=json
  else
    "$BUILD_DIR/bench/bench_$bench" "${FLAGS[@]}" "--json=$out"
  fi
done

python3 "$ROOT/tools/check_bench.py" --build-dir "$BUILD_DIR" \
  "$OUT_DIR"/BENCH_*.json
