#!/usr/bin/env bash
# One-stop correctness gate. Runs one stage per invocation:
#
#   scripts/check.sh build   # RelWithDebInfo + -Werror, full ctest
#   scripts/check.sh asan    # ASan+UBSan build, full ctest
#   scripts/check.sh tsan    # TSan build, full ctest
#   scripts/check.sh analyze # erec_analyze lint/arch/hotpath/conc + clang-tidy
#   scripts/check.sh tsan-stress # TSan repeat-run of the concurrency tests
#   scripts/check.sh smoke   # run example + fig bench, validate telemetry
#   scripts/check.sh bench   # serving throughput sweep + benchdiff gate
#   scripts/check.sh kernels # kernel-backend sweep + benchdiff gate
#   scripts/check.sh sim     # simulator-core throughput + benchdiff gate
#   scripts/check.sh all     # every stage above, in order
#
# Each stage uses its own build tree (build-check-<stage>) so stages
# never poison each other's CMake cache. CI runs the same stages; see
# .github/workflows/ci.yml and scripts/ci.sh. When ccache is installed
# it is wired in as the compiler launcher automatically (CI installs
# it via ccache-action; locally it is optional).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

# Belt-and-braces hang guard: per-test TIMEOUT properties exist in
# tests/CMakeLists.txt, but older build trees may predate them.
ctest_timeout=300

cmake_launcher_args=()
if command -v ccache >/dev/null 2>&1; then
    cmake_launcher_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

configure_build_test() {
    local tree="$1"
    shift
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" "$@"
    cmake --build "$tree" -j "$jobs"
    ctest --test-dir "$tree" --output-on-failure -j "$jobs" \
        --timeout "$ctest_timeout"
}

# Must-fail self-test: run the command $3... in directory $1, keeping
# its output in $1/$2. It must exit exactly 1: a gate that cannot fail
# is not a gate, and exit 2 is a usage or parse error, not the gate
# firing.
expect_exit_1() {
    local dir="$1" report="$1/$2" rc=0
    shift 2
    (cd "$dir" && "$@") > "$report" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "self-test: expected exit 1 from $*, got $rc" >&2
        cat "$report" >&2
        exit 1
    fi
}

# The self-test report $1 must contain every further argument.
report_has() {
    local report="$1" pattern
    shift
    for pattern in "$@"; do
        if ! grep -qF -- "$pattern" "$report"; then
            echo "self-test: $report lacks \"$pattern\"" >&2
            cat "$report" >&2
            exit 1
        fi
    done
}

stage_build() {
    configure_build_test "$repo_root/build-check-release" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
}

stage_asan() {
    configure_build_test "$repo_root/build-check-asan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DELASTICREC_SANITIZE="address;undefined"
}

stage_tsan() {
    configure_build_test "$repo_root/build-check-tsan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DELASTICREC_SANITIZE=thread
}

# Static analysis gate: build erec_analyze and the archlint_headers
# standalone-compile check once, then run every pass from the repo root
# (so paths are repo-relative and quoted includes resolve):
#   - lint: repo lint rules over src/tests/bench/examples, then
#     clang-tidy when installed (the `lint` CMake target);
#   - arch: the layer DAG in tools/analyze/layers.conf plus
#     acyclicity, over all first-party code (DESIGN.md section 9);
#   - hotpath: allocation/blocking/throw/lock scan of everything
#     reachable from an ERC_HOT_PATH root (DESIGN.md section 10);
#   - conc: lock-order inversions, blocking under a lock and
#     ERC_GUARDED_BY coverage (DESIGN.md section 14).
# Then three seeded must-fail self-tests (a layer inversion, a hot-path
# push_back, a two-lock inversion): a gate that cannot fail is not a
# gate. Set ELASTICREC_ANALYZE_OUT to keep the JSON reports
# (archlint.json, hotpath.json, conclint.json; CI uploads them as the
# analyze-report artifact); by default a temp dir is used and removed.
stage_analyze() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target erec_analyze archlint_headers
    cmake --build "$tree" --target lint
    local out
    if [ -n "${ELASTICREC_ANALYZE_OUT:-}" ]; then
        out="$ELASTICREC_ANALYZE_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local analyze="$tree/tools/analyze/erec_analyze"
    local layers="$repo_root/tools/analyze/layers.conf"
    local arch=(arch --root src --root tools --root bench --root tests
        --root examples --config "$layers")
    (cd "$repo_root" && "$analyze" "${arch[@]}" --format text)
    (cd "$repo_root" && "$analyze" "${arch[@]}" --format json) \
        > "$out/archlint.json"
    (cd "$repo_root" && "$analyze" hotpath --root src --format text)
    (cd "$repo_root" && "$analyze" hotpath --root src --format json) \
        > "$out/hotpath.json"
    (cd "$repo_root" && "$analyze" conc --root src --format text)
    (cd "$repo_root" && "$analyze" conc --root src --format json) \
        > "$out/conclint.json"

    # Seeded layer inversion: a common/ header including a sim/ header
    # must fail against the real layers.conf and name the edge.
    local seed="$out/arch-selftest"
    mkdir -p "$seed/src/elasticrec/common" "$seed/src/elasticrec/sim"
    cat > "$seed/src/elasticrec/common/seeded.h" <<'SEED'
#pragma once
#include "elasticrec/sim/seeded.h"
SEED
    printf '#pragma once\n' > "$seed/src/elasticrec/sim/seeded.h"
    expect_exit_1 "$seed" report.txt \
        "$analyze" arch --root src --config "$layers"
    report_has "$seed/report.txt" '`common` may not include `sim`'

    # Seeded hot-path violation: a hot root reaching a push_back two
    # calls away must fail with a concrete call path.
    seed="$out/hotpath-selftest"
    mkdir -p "$seed/src"
    cat > "$seed/src/seeded.h" <<'SEED'
#pragma once
#define ERC_HOT_PATH
namespace seeded {
ERC_HOT_PATH
void serve(int n);
}
SEED
    cat > "$seed/src/seeded.cc" <<'SEED'
#include "seeded.h"
#include <vector>
namespace seeded {
static std::vector<int> sink;
void helper(int n) { sink.push_back(n); }
void serve(int n) { helper(n); }
} // namespace seeded
SEED
    expect_exit_1 "$seed" report.txt "$analyze" hotpath --root src
    report_has "$seed/report.txt" "serve -> helper"

    # Seeded two-lock inversion: two functions acquiring the same mutex
    # pair in opposite orders — one of them through a helper — must
    # fail and print both acquisition call paths, the helper's path
    # including the call site that orders the locks.
    seed="$out/conc-selftest"
    mkdir -p "$seed/src"
    cat > "$seed/src/inverted.cc" <<'SEED'
#include <mutex>
namespace seeded {
std::mutex a_;
std::mutex b_;
void lockAB()
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
}
void helper()
{
    std::lock_guard<std::mutex> ga(a_);
}
void lockBA()
{
    std::lock_guard<std::mutex> gb(b_);
    helper();
}
} // namespace seeded
SEED
    expect_exit_1 "$seed" report.txt "$analyze" conc --root src
    report_has "$seed/report.txt" lockAB lockBA helper \
        "lockBA (src/inverted.cc:17) -> helper (src/inverted.cc:12)"
}

# Perf-regression gate: run the concurrent serving throughput sweep
# (quick mode, 1%-sampled causal tracing on) and compare its QPS per
# worker count against the checked-in conservative baseline with
# erec_benchdiff. Two exact gates ride along: allocs_per_query must
# stay 0 *with tracing on* (the flight recorder's rings are hot-path
# clean), and trace_overhead_pct — the traced-vs-untraced QPS delta —
# must stay at or below the 5% baseline ceiling. Then self-test both
# gates: the trace gate by inflating trace_overhead_pct in a copy of
# the current results, the QPS gate with a throttled sweep. Finally
# build the repo benchmark (perfbench/, its own stand-alone CMake
# project) in its own tree and run perfbench_selftest, the synthetic
# checks of the benchmark's statistics. Set ELASTICREC_BENCH_OUT to keep
# BENCH_serving.json (CI uploads it as an artifact); by default a temp
# dir is used and removed.
stage_bench() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target serving_throughput erec_benchdiff
    local out
    if [ -n "${ELASTICREC_BENCH_OUT:-}" ]; then
        out="$ELASTICREC_BENCH_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local benchdiff="$tree/tools/benchdiff/erec_benchdiff"
    "$tree/bench/serving_throughput" --quick --trace-sample 100 \
        --out "$out/BENCH_serving.json"
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_serving.json" \
        "$out/BENCH_serving.json" --tolerance 15% \
        --metric-tolerance allocs_per_query=0 \
        --metric-tolerance trace_overhead_pct=0

    # Trace-gate self-test: rewrite the overhead of every sweep entry
    # to 3x the 5% baseline ceiling and assert the gate exits 1.
    sed 's/"trace_overhead_pct": [0-9.]*/"trace_overhead_pct": 15.0/' \
        "$out/BENCH_serving.json" > "$out/BENCH_serving_inflated.json"
    expect_exit_1 "$out" benchdiff-inflated.txt "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_serving.json" \
        "$out/BENCH_serving_inflated.json" --tolerance 15% \
        --metric-tolerance allocs_per_query=0 \
        --metric-tolerance trace_overhead_pct=0

    # Throttled self-test: 5 ms of sleep per query caps the sweep near
    # 200 QPS on any machine, far below the baseline floor at every
    # worker count, so the QPS gate must exit 1.
    "$tree/bench/serving_throughput" --quick --threads 1,2,4 \
        --throttle-us 5000 --out "$out/BENCH_serving_throttled.json"
    expect_exit_1 "$out" benchdiff-throttled.txt "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_serving.json" \
        "$out/BENCH_serving_throttled.json" --tolerance 15% \
        --metric-tolerance allocs_per_query=0

    local perfbench_tree="$repo_root/build-check-perfbench"
    cmake -B "$perfbench_tree" -S "$repo_root/perfbench" \
        "${cmake_launcher_args[@]}" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$perfbench_tree" -j "$jobs" --target perfbench_selftest
    "$perfbench_tree/perfbench_selftest"
}

# Kernel-backend perf gate: run the per-backend gather-pool / GEMM
# sweep (quick mode) and compare the scalar points against the
# checked-in conservative baseline with erec_benchdiff, keyed on the
# "point" id and gating allocs_per_call at exactly zero. Then
# self-test the gate with a throttled run: a gate that cannot fail is
# not a gate. Set ELASTICREC_KERNELS_OUT to keep BENCH_kernels.json
# (CI uploads it as an artifact); by default a temp dir is used and
# removed.
stage_kernels() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target kernel_bench erec_benchdiff
    local out
    if [ -n "${ELASTICREC_KERNELS_OUT:-}" ]; then
        out="$ELASTICREC_KERNELS_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local benchdiff="$tree/tools/benchdiff/erec_benchdiff"
    "$tree/bench/kernel_bench" --json "$out/BENCH_kernels.json" --quick
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_kernels.json" \
        "$out/BENCH_kernels.json" --key point --tolerance 40% \
        --metric-tolerance allocs_per_call=0

    # Throttled self-test: 500 us of sleep per rep dominates the
    # small-dim gather points (whose real work is tens of us), pinning
    # at least point 0 far below its baseline floor, so the gate must
    # exit 1 — proof the gate can actually fail.
    "$tree/bench/kernel_bench" --json "$out/BENCH_kernels_throttled.json" \
        --quick --throttle-us 500
    expect_exit_1 "$out" benchdiff-throttled.txt "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_kernels.json" \
        "$out/BENCH_kernels_throttled.json" --key point \
        --tolerance 40% --metric-tolerance allocs_per_call=0
}

# Simulator-core perf gate: sim_throughput drives the discrete-event
# engine through the diurnal trace on both deployment plans and
# benchdiff compares simulated-queries-per-wall-second against
# bench/baselines/BENCH_sim.json, with allocs_per_query pinned at
# exactly zero (the gated query path must not heap-allocate; DESIGN.md
# section 13). Also self-tests the gate with a throttled run that must
# fail: a gate that cannot fail is not a gate. Set ELASTICREC_SIM_OUT
# to keep BENCH_sim.json (CI uploads it as an artifact); by default a
# temp dir is used and removed.
stage_sim() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target sim_throughput erec_benchdiff
    local out
    if [ -n "${ELASTICREC_SIM_OUT:-}" ]; then
        out="$ELASTICREC_SIM_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local benchdiff="$tree/tools/benchdiff/erec_benchdiff"
    "$tree/bench/sim_throughput" --quick --out "$out/BENCH_sim.json"
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_sim.json" \
        "$out/BENCH_sim.json" --key point --tolerance 60% \
        --metric-tolerance allocs_per_query=0

    # Throttled self-test: 50 ms of sleep per simulated second turns
    # the ~32k sim-queries/s ElasticRec point into a few thousand —
    # far below the baseline floor on any machine — so the gate must
    # exit 1, proof it can actually fail.
    "$tree/bench/sim_throughput" --queries 50000 --throttle-us 50000 \
        --out "$out/BENCH_sim_throttled.json"
    expect_exit_1 "$out" benchdiff-throttled.txt "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_sim.json" \
        "$out/BENCH_sim_throttled.json" --key point \
        --tolerance 60% --metric-tolerance allocs_per_query=0
}

# Dynamic counterpart of the concurrency gate: rebuild the concurrency
# test subset under ThreadSanitizer and run it repeatedly
# (--repeat until-fail:3) with zero suppressions, so real interleaved
# executions back the lexical lock-graph model. Reuses the tsan stage's
# build tree.
stage_tsan_stress() {
    local tree="$repo_root/build-check-tsan"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DELASTICREC_SANITIZE=thread
    cmake --build "$tree" -j "$jobs" --target \
        thread_pool_test batch_queue_test runtime_serving_test \
        tracing_serving_test alloc_tracker_test embedding_table_test
    ctest --test-dir "$tree" --output-on-failure -j "$jobs" \
        --timeout "$ctest_timeout" \
        -R '^(thread_pool_test|batch_queue_test|runtime_serving_test|tracing_serving_test|alloc_tracker_test|embedding_table_test)$' \
        --repeat until-fail:3
}

# End-to-end smoke: run the quickstart example, the Figure 19 bench
# with --metrics-out and causal tracing (--trace-sample 100 = every
# 100th query), and a short traced native serving run, validate every
# emitted telemetry file (Prometheus text, trace/alert JSON-lines
# against erec_trace/v2, and the Perfetto exports) with promcheck,
# then render the run report for simulated and native runs alike —
# stage sketches plus the critical-path table — and gate on the
# "lost-queries" alert — steady fig19 traffic must never lose a query.
# (The SLA-ratio and p95 alerts legitimately fire during fig19's
# traffic spike, so they don't gate.) Set ELASTICREC_SMOKE_OUT to keep
# the telemetry + report (CI uploads it as an artifact, including the
# Perfetto trace for ui.perfetto.dev); by default a temp dir is used
# and removed.
stage_smoke() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target quickstart fig19_dynamic_traffic serving_throughput \
        promcheck erec_report
    local out
    if [ -n "${ELASTICREC_SMOKE_OUT:-}" ]; then
        out="$ELASTICREC_SMOKE_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    "$tree/examples/quickstart" --metrics-out "$out"
    "$tree/bench/fig19_dynamic_traffic" --metrics-out "$out" \
        --trace-sample 100
    "$tree/bench/serving_throughput" --quick --threads 2 \
        --trace-sample 10 --metrics-out "$out" \
        --out "$out/BENCH_serving.json"
    "$tree/tools/promcheck/promcheck" "$out"/*.prom "$out"/*.jsonl \
        "$out"/*_perfetto.json
    "$tree/tools/report/erec_report" "$out" \
        --fail-on-alert lost-queries | tee "$out/report.txt"
    # The native serving run is summarized from its dispatcher metrics.
    grep -q '^dispatcher: [1-9][0-9]* queries in ' "$out/report.txt"
}

stage="${1:-all}"
case "$stage" in
  build) stage_build ;;
  asan) stage_asan ;;
  tsan) stage_tsan ;;
  analyze) stage_analyze ;;
  tsan-stress) stage_tsan_stress ;;
  smoke) stage_smoke ;;
  bench) stage_bench ;;
  kernels) stage_kernels ;;
  sim) stage_sim ;;
  all)
    stage_build
    stage_asan
    stage_tsan
    stage_analyze
    stage_tsan_stress
    stage_smoke
    stage_bench
    stage_kernels
    stage_sim
    ;;
  *)
    echo "usage: check.sh [build|asan|tsan|analyze|tsan-stress|smoke|bench|kernels|sim|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: stage '$stage' passed"
