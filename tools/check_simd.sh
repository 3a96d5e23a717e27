#!/usr/bin/env bash
# Proves the exact-path SIMD contract (DESIGN §14) end to end: builds the
# tree once, trains each SkipNode model below with the vectorized kernels
# (SKIPNODE_SIMD unset) and with the runtime kill-switch (SKIPNODE_SIMD=0,
# every kernel routed through its scalar reference in simd_ref.cc) at
# 1/4/8 threads, and diffs the saved checkpoints bit for bit. Any
# reassociation smuggled into a vectorized kernel shows up as a byte
# difference here.
#
# Usage: tools/check_simd.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-simd
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target skipnode_train_cli \
  >/dev/null

# A SkipNode run touches every vectorized family: Gemm (dense layers), the
# masked + unmasked SpMM forward and transposed backward (fused propagation),
# the elementwise tape ops, and Adam. The GCN case runs the Gemm row kernel's
# 32-column blocks only; the ResGCN case at hidden 36 adds a 4-column block
# (36 = 32 + 4) and, on its 7-class output, a 4-column block plus a 3-column
# scalar tail, through 16 layers.
CASES=(
  "gcn|--model GCN --layers 4 --hidden 64"
  "resgcn|--model ResGCN --layers 16 --hidden 36"
)
COMMON=(--dataset cora_like --strategy skipnode-u --rate 0.5 --epochs 8
  --seed 7)

for entry in "${CASES[@]}"; do
  name=${entry%%|*}
  read -ra flags <<<"${entry#*|}"
  for threads in 1 4 8; do
    export SKIPNODE_NUM_THREADS=$threads
    (unset SKIPNODE_SIMD; "$BUILD_DIR/tools/skipnode_train" "${COMMON[@]}" \
      "${flags[@]}" --save-dir "$OUT/$name-vec-$threads" >/dev/null)
    SKIPNODE_SIMD=0 "$BUILD_DIR/tools/skipnode_train" "${COMMON[@]}" \
      "${flags[@]}" --save-dir "$OUT/$name-ref-$threads" >/dev/null
    diff -r "$OUT/$name-vec-$threads" "$OUT/$name-ref-$threads" || {
      echo "SIMD: vectorized and SKIPNODE_SIMD=0 checkpoints differ for" \
        "$name at $threads threads" >&2
      exit 1
    }
    echo "SIMD: $name bitwise identical at $threads threads (vectorized," \
      "kill-switch)."
  done
done

# Cross-thread-count determinism (DESIGN §7) is already pinned by the unit
# suite; the on/off diffs above are this script's contribution.
echo "SIMD: exact-path training is bitwise independent of the kill-switch."
