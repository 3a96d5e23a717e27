#!/usr/bin/env bash
# Runs every paper bench at smoke scale with JSONL output enabled and
# validates the emitted records: every line must be a JSON object carrying
# the full per-cell schema (bench/cell/scale/threads/params/metric/value/
# elapsed_ns/telemetry), table8 must report per-kernel telemetry
# (tensor.gemm, sparse.spmm) plus positive per-epoch timings, micro must
# show the fused SkipNode propagation beating the naive path at rho=0.5,
# and serve must show 8-client batched serving at >= 2x the EvaluateLogits
# baseline throughput. scale must keep peak RSS within 2x of the resident
# CSR+features footprint at its checked streaming cell, and its
# sampled_train cell must hold the minibatch-sampling acceptance (epoch
# wall <= 0.5x full-batch, RSS ratio <= 2x, pruning telemetry at rho > 0,
# sampled accuracy within 0.15 of full).
# When tools/BENCH_baseline.jsonl exists each run is also diffed against it:
# (cell, metric) pairs missing from the run (schema drift) or missing from
# the baseline (unguarded cells) fail, slow cells only warn.
# Refresh the baseline by re-running this script with
# BENCH_BASELINE_REFRESH=1 (writes the merged smoke JSONL back to the file).
#
# Usage: tools/check_bench_smoke.sh [build_dir]
#   BENCHES="fig2_three_issues table8_efficiency" overrides the bench list.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found; build first" >&2
  exit 1
fi

DEFAULT_BENCHES="ablation_skipnode fig2_three_issues fig4_distance_ratio \
fig5_rho_sensitivity micro_kernels table3_full_supervised table4_arxiv_depth \
table5_link_prediction table6_semi_supervised_depth \
table7_strategy_comparison table8_efficiency serve_latency \
scale_depth_size"
BENCHES="${BENCHES:-$DEFAULT_BENCHES}"
BASELINE="tools/BENCH_baseline.jsonl"

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

export SKIPNODE_BENCH_SCALE=smoke

for bench in $BENCHES; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: missing bench binary $bin" >&2
    exit 1
  fi
  jsonl="$OUT_DIR/$bench.jsonl"
  echo "== $bench"
  SKIPNODE_BENCH_JSON="$jsonl" "$bin" >"$OUT_DIR/$bench.log" 2>&1 || {
    echo "error: $bench failed; last lines of log:" >&2
    tail -20 "$OUT_DIR/$bench.log" >&2
    exit 1
  }
  # Each bench registers itself under the short paper name (table8, fig2...),
  # the first token of the binary name.
  if [[ -f "$BASELINE" && -z "${BENCH_BASELINE_REFRESH:-}" ]]; then
    python3 tools/validate_bench_jsonl.py "${bench%%_*}" "$jsonl" \
        --baseline "$BASELINE"
  else
    python3 tools/validate_bench_jsonl.py "${bench%%_*}" "$jsonl"
  fi
done

if [[ -n "${BENCH_BASELINE_REFRESH:-}" ]]; then
  cat "$OUT_DIR"/*.jsonl > "$BASELINE"
  echo "bench smoke: baseline refreshed ($BASELINE, $(wc -l < "$BASELINE") records)."
fi

echo "bench smoke: all benches ran and emitted valid JSONL."
