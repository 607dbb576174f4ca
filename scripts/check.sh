#!/usr/bin/env bash
# One-stop correctness gate. Runs one stage per invocation:
#
#   scripts/check.sh build   # RelWithDebInfo + -Werror, full ctest
#   scripts/check.sh asan    # ASan+UBSan build, full ctest
#   scripts/check.sh tsan    # TSan build, full ctest
#   scripts/check.sh lint    # erec_lint + clang-tidy (if installed)
#   scripts/check.sh arch    # include-graph / layer-DAG gate + header check
#   scripts/check.sh hotpath # ERC_HOT_PATH static allocation/blocking gate
#   scripts/check.sh concurrency # lock-order / blocking-under-lock gate
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

stage_lint() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" --target lint
}

# Architecture gate: extract the include graph of all first-party
# code, enforce the layer DAG in tools/archlint/layers.conf (plus
# acyclicity), and compile every src/elasticrec header standalone
# (archlint_headers). Runs from the repo root so quoted includes
# resolve. Set ELASTICREC_ARCH_OUT to keep the JSON report (CI
# uploads archlint.json as an artifact next to the bench/telemetry
# ones); by default a temp dir is used and removed.
stage_arch() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" \
        --target erec_archlint archlint_headers
    local out
    if [ -n "${ELASTICREC_ARCH_OUT:-}" ]; then
        out="$ELASTICREC_ARCH_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local archlint=("$tree/tools/archlint/erec_archlint"
        --root src --root tools --root bench --root tests
        --root examples
        --config "$repo_root/tools/archlint/layers.conf")
    (cd "$repo_root" && "${archlint[@]}" --format text)
    (cd "$repo_root" && "${archlint[@]}" --format json) \
        > "$out/archlint.json"
}

# Perf-regression gate: run the concurrent serving throughput sweep
# (quick mode, 1%-sampled causal tracing on) and compare its QPS per
# worker count against the checked-in conservative baseline with
# erec_benchdiff. Two exact gates ride along: allocs_per_query must
# stay 0 *with tracing on* (the flight recorder's rings are hot-path
# clean), and trace_overhead_pct — the traced-vs-untraced QPS delta —
# must stay at or below the 5% baseline ceiling. Then self-test the
# trace gate by inflating trace_overhead_pct in a copy of the current
# results: a gate that cannot fail is not a gate. Finally build the
# repo benchmark (perfbench/, its own stand-alone CMake project) in
# its own tree and run perfbench_selftest, the synthetic checks of the
# benchmark's statistics. Set ELASTICREC_BENCH_OUT to keep
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
    local rc=0
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_serving.json" \
        "$out/BENCH_serving_inflated.json" --tolerance 15% \
        --metric-tolerance allocs_per_query=0 \
        --metric-tolerance trace_overhead_pct=0 \
        > "$out/benchdiff-inflated.txt" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "bench self-test: expected exit 1 on inflated" \
            "trace_overhead_pct, got $rc" >&2
        cat "$out/benchdiff-inflated.txt" >&2
        exit 1
    fi

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
    local rc=0
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_kernels.json" \
        "$out/BENCH_kernels_throttled.json" --key point \
        --tolerance 40% --metric-tolerance allocs_per_call=0 \
        > "$out/benchdiff-throttled.txt" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "kernels self-test: expected exit 1 on throttled run," \
            "got $rc" >&2
        cat "$out/benchdiff-throttled.txt" >&2
        exit 1
    fi
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
    local rc=0
    "$benchdiff" \
        "$repo_root/bench/baselines/BENCH_sim.json" \
        "$out/BENCH_sim_throttled.json" --key point \
        --tolerance 60% --metric-tolerance allocs_per_query=0 \
        > "$out/benchdiff-throttled.txt" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "sim self-test: expected exit 1 on throttled run," \
            "got $rc" >&2
        cat "$out/benchdiff-throttled.txt" >&2
        exit 1
    fi
}

# Hot-path discipline gate: erec_hotpath extracts the ERC_HOT_PATH
# roots and the intra-repo call graph and flags heap allocation,
# blocking I/O, throw and non-try locking in every transitively
# reachable function (DESIGN.md section 10). Also self-tests the
# analyzer against a seeded violation: a gate that cannot fail is not
# a gate. Set ELASTICREC_HOTPATH_OUT to keep the JSON report (CI
# uploads hotpath.json as an artifact); by default a temp dir is used
# and removed.
stage_hotpath() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" --target erec_hotpath
    local out
    if [ -n "${ELASTICREC_HOTPATH_OUT:-}" ]; then
        out="$ELASTICREC_HOTPATH_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local hotpath="$tree/tools/hotpath/erec_hotpath"
    (cd "$repo_root" && "$hotpath" --root src --format text)
    (cd "$repo_root" && "$hotpath" --root src --format json) \
        > "$out/hotpath.json"

    # Seeded-violation self-test: a hot root reaching a push_back two
    # calls away must fail with a concrete call path.
    local seed="$out/hotpath-selftest"
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
    local rc=0
    (cd "$seed" && "$hotpath" --root src) > "$seed/report.txt" 2>&1 \
        || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "hotpath self-test: expected exit 1 on seeded violation," \
            "got $rc" >&2
        cat "$seed/report.txt" >&2
        exit 1
    fi
    if ! grep -q "serve -> helper" "$seed/report.txt"; then
        echo "hotpath self-test: report lacks the call path" >&2
        cat "$seed/report.txt" >&2
        exit 1
    fi
}

# Static concurrency-discipline gate: erec_conclint builds the
# lock-acquisition graph from every scoped-lock site, reports
# lock-order inversion cycles with both concrete acquisition paths,
# flags blocking calls (sleeps, I/O, predicate-less cv waits, future
# joins, transitively blocking callees) inside held-lock scopes, and
# enforces ERC_GUARDED_BY annotation coverage (DESIGN.md section 14).
# Also self-tests the analyzer against a seeded two-lock inversion: a
# gate that cannot fail is not a gate. Set ELASTICREC_CONCLINT_OUT to
# keep the JSON report (CI uploads conclint.json as the
# concurrency-report artifact); by default a temp dir is used and
# removed.
stage_concurrency() {
    local tree="$repo_root/build-check-release"
    cmake -B "$tree" -S "$repo_root" "${cmake_launcher_args[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DELASTICREC_WERROR=ON
    cmake --build "$tree" -j "$jobs" --target erec_conclint
    local out
    if [ -n "${ELASTICREC_CONCLINT_OUT:-}" ]; then
        out="$ELASTICREC_CONCLINT_OUT"
        mkdir -p "$out"
    else
        out="$(mktemp -d)"
        trap 'rm -rf "$out"' RETURN
    fi
    local conclint="$tree/tools/conclint/erec_conclint"
    (cd "$repo_root" && "$conclint" --root src --format text)
    (cd "$repo_root" && "$conclint" --root src --format json) \
        > "$out/conclint.json"

    # Seeded-violation self-test: two functions acquiring the same
    # mutex pair in opposite orders — one of them through a helper —
    # must fail and print both acquisition call paths.
    local seed="$out/conclint-selftest"
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
    local rc=0
    (cd "$seed" && "$conclint" --root src) > "$seed/report.txt" 2>&1 \
        || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "conclint self-test: expected exit 1 on seeded" \
            "inversion, got $rc" >&2
        cat "$seed/report.txt" >&2
        exit 1
    fi
    if ! grep -q "lockAB" "$seed/report.txt" ||
        ! grep -q "lockBA" "$seed/report.txt" ||
        ! grep -q "helper" "$seed/report.txt"; then
        echo "conclint self-test: report lacks one of the two" \
            "acquisition call paths" >&2
        cat "$seed/report.txt" >&2
        exit 1
    fi
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
  lint) stage_lint ;;
  arch) stage_arch ;;
  hotpath) stage_hotpath ;;
  concurrency) stage_concurrency ;;
  tsan-stress) stage_tsan_stress ;;
  smoke) stage_smoke ;;
  bench) stage_bench ;;
  kernels) stage_kernels ;;
  sim) stage_sim ;;
  all)
    stage_build
    stage_asan
    stage_tsan
    stage_lint
    stage_arch
    stage_hotpath
    stage_concurrency
    stage_tsan_stress
    stage_smoke
    stage_bench
    stage_kernels
    stage_sim
    ;;
  *)
    echo "usage: check.sh [build|asan|tsan|lint|arch|hotpath|concurrency|tsan-stress|smoke|bench|kernels|sim|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: stage '$stage' passed"
