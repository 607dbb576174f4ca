#!/usr/bin/env bash
# Local CI matrix: the same nine jobs .github/workflows/ci.yml runs,
# one-to-one and in the same order, sequentially, stopping at the
# first failure. Use this when iterating without a GitHub runner.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"

echo "=== CI job 1/9: RelWithDebInfo + -Werror + ctest ==="
"$here/check.sh" build

echo "=== CI job 2/9: ASan+UBSan + ctest ==="
"$here/check.sh" asan

echo "=== CI job 3/9: TSan + ctest ==="
"$here/check.sh" tsan

echo "=== CI job 4/9: static analysis (erec_analyze + clang-tidy) ==="
"$here/check.sh" analyze

echo "=== CI job 5/9: TSan stress (concurrency test subset) ==="
"$here/check.sh" tsan-stress

echo "=== CI job 6/9: telemetry smoke ==="
"$here/check.sh" smoke

echo "=== CI job 7/9: serving throughput + perf gate ==="
"$here/check.sh" bench

echo "=== CI job 8/9: kernel-backend sweep + perf gate ==="
"$here/check.sh" kernels

echo "=== CI job 9/9: simulator-core throughput + perf gate ==="
"$here/check.sh" sim

echo "=== CI matrix green ==="
