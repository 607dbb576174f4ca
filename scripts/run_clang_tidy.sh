#!/usr/bin/env bash
# Run clang-tidy over all library sources using the compile database of
# the build tree given as $1. Skips gracefully (exit 0 with a notice)
# when clang-tidy is not installed, so the `lint` target still runs the
# lint pass of erec_analyze on machines without LLVM.
set -euo pipefail

build_dir="${1:?usage: run_clang_tidy.sh <build-dir>}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

tidy="$(command -v clang-tidy || true)"
if [[ -z "$tidy" ]]; then
    echo "run_clang_tidy.sh: clang-tidy not found; skipping (erec_analyze lint still ran)"
    exit 0
fi

if [[ ! -f "$build_dir/compile_commands.json" ]]; then
    echo "run_clang_tidy.sh: $build_dir/compile_commands.json missing;" \
         "configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 1
fi

mapfile -t files < <(find "$repo_root/src" -name '*.cc' | sort)
echo "run_clang_tidy.sh: checking ${#files[@]} files with $tidy"
# -quiet keeps output to actual diagnostics; WarningsAsErrors in
# .clang-tidy turns any diagnostic into a non-zero exit.
"$tidy" -quiet -p "$build_dir" "${files[@]}"
echo "run_clang_tidy.sh: clean"
