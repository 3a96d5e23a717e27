#!/usr/bin/env bash
# Proves that a change left training bitwise unchanged. Builds
# skipnode_train at git revision REF and in the working tree, trains a fixed
# matrix of runs with each binary at 1 and 4 threads, and diffs the
# --save-dir checkpoints and the --log-every 1 stdout byte for byte (only
# the line naming the checkpoint path is left out). The matrix (33 cases):
#   * full-batch: GCN / ResGCN / GRAND x none / skipnode-u / dropedge /
#     dropnode, and skipnode-u for each other backbone (GAT, JKNet,
#     IncepGCN, GCNII, APPNP, GPRGNN, SGC), so every Forward is covered;
#   * neighbor-sampled: GCN and ResGCN, fanout 3, batch size 64 (3 batches
#     per epoch) x none / skipnode-u / skipnode-b — every sampled mask
#     source;
#   * the guardrails (--health) with an activation / gradient / update fault
#     injected at epoch 5, full-batch and sampled;
#   * dropout 0.3 (every other case trains at the default 0.5, a dyadic
#     rate), full-batch ResGCN and sampled GCN under skipnode-u.
# REF's tree is exported with `git archive` into a temporary directory, so
# the working tree and the repository metadata are left untouched.
#
# A local tool like check_simd.sh, not a CI job: a change that fixes
# numerics must be allowed to differ.
#
# Usage: tools/check_train_bitwise.sh REF    (a commit, branch or tag)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 REF" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
REF_SHA=$(git rev-parse --verify "$1^{commit}")

HEAD_BUILD=build-bitwise
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/src"
git archive "$REF_SHA" | tar -x -C "$WORK/src"
cmake -S "$WORK/src" -B "$WORK/src/build" -DCMAKE_BUILD_TYPE=Release \
  >/dev/null
cmake --build "$WORK/src/build" -j "$(nproc)" --target skipnode_train_cli \
  >/dev/null
cmake -B "$HEAD_BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$HEAD_BUILD" -j "$(nproc)" --target skipnode_train_cli \
  >/dev/null
REF_BIN="$WORK/src/build/tools/skipnode_train"
HEAD_BIN="$HEAD_BUILD/tools/skipnode_train"

COMMON="--dataset cora_like --scale 0.3 --layers 4 --hidden 16 --epochs 12
  --seed 7 --rate 0.5 --log-every 1"
SAMPLED="--sample-fanout 3 --batch-size 64"
INJECT="--model GCN --strategy skipnode-u --health --inject-epoch 5 --inject"

# One case per entry: "name|flags".
CASES=()
for model in GCN ResGCN GRAND; do
  for strategy in none skipnode-u dropedge dropnode; do
    CASES+=("full-$model-$strategy|--model $model --strategy $strategy")
  done
done
for model in GAT JKNet IncepGCN GCNII APPNP GPRGNN SGC; do
  CASES+=("full-$model-skipnode-u|--model $model --strategy skipnode-u")
done
for model in GCN ResGCN; do
  for strategy in none skipnode-u skipnode-b; do
    CASES+=("sampled-$model-$strategy|--model $model --strategy $strategy \
$SAMPLED")
  done
done
for site in activation gradient update; do
  CASES+=("full-inject-$site|$INJECT $site")
  CASES+=("sampled-inject-$site|$INJECT $site $SAMPLED")
done
CASES+=("full-ResGCN-skipnode-u-dropout-0.3|--model ResGCN \
--strategy skipnode-u --dropout 0.3")
CASES+=("sampled-GCN-skipnode-u-dropout-0.3|--model GCN --strategy skipnode-u \
--dropout 0.3 $SAMPLED")

# Trains one case with binary $1 into directory $2; the flags follow.
train() {
  local bin=$1 out=$2
  shift 2
  mkdir -p "$out"
  # shellcheck disable=SC2086  # COMMON is a flag list
  "$bin" $COMMON "$@" --save-dir "$out/checkpoint" |
    grep -v '^checkpoint saved to ' >"$out/stdout"
}

failures=0
for threads in 1 4; do
  export SKIPNODE_NUM_THREADS=$threads
  for entry in "${CASES[@]}"; do
    name=${entry%%|*}
    read -ra flags <<<"${entry#*|}"
    out="$WORK/out/$threads/$name"
    train "$REF_BIN" "$out/ref" "${flags[@]}"
    train "$HEAD_BIN" "$out/head" "${flags[@]}"
    if diff -r "$out/ref" "$out/head" >"$out/diff"; then
      echo "identical  $name @ $threads threads"
    else
      echo "DIFFERENT  $name @ $threads threads:"
      head -20 "$out/diff"
      failures=$((failures + 1))
    fi
  done
done

if ((failures > 0)); then
  echo "train bitwise: $failures run(s) differ from $1 ($REF_SHA)." >&2
  exit 1
fi
echo "train bitwise: ${#CASES[@]} cases x 2 thread counts identical to" \
  "$1 ($REF_SHA): checkpoints and stdout."
