#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer and runs
# the full ctest suite under it (memory bugs, UB). Any report aborts the
# run. Data races are tools/check_tsan.sh's job.
#
# Usage: tools/check_sanitizers.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-asan

cmake -B "$BUILD_DIR" -DSKIPNODE_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
echo "ASan/UBSan: clean."
