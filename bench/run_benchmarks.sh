#!/usr/bin/env sh
# Runs the kernel microbenchmark comparison and records the scalar-vs-SIMD
# trajectory in BENCH_kernels.json (JSONL, one "kernel_bench" row per
# kernel; the binary self-validates the file through the JSONL validator).
# End-to-end numbers, B0 eval included, come from perfbench/run.py.
#
# Usage:
#   bench/run_benchmarks.sh [build_dir] [output_file]     # record
#   bench/run_benchmarks.sh --check [build_dir] [baseline] # regression gate
#
# --check re-times every kernel and diffs the scalar-vs-SIMD *speedups*
# against the committed baseline, exiting nonzero when any kernel's speedup
# regressed by more than 15%. Ratios rather than raw GFLOP/s keep the gate
# meaningful across host classes; absolute throughput is not portable.
# Both modes time on one kernel thread: the GEMM rows' speedups depend on
# the thread count, and the committed rows were recorded at threads=1.
set -eu

CHECK=0
if [ "${1:-}" = "--check" ]; then
  CHECK=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_kernels.json}"
BIN="$BUILD_DIR/bench/micro_kernels"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found — build the 'micro_kernels' target first" >&2
  echo "  cmake --build $BUILD_DIR --target micro_kernels" >&2
  exit 1
fi

if [ "$CHECK" = 1 ]; then
  if [ ! -f "$OUT" ]; then
    echo "error: baseline $OUT not found" >&2
    exit 1
  fi
  "$BIN" --threads 1 --diff "$OUT"
else
  "$BIN" --threads 1 --json "$OUT"
  echo "benchmark trajectory written to $OUT"
fi
