#pragma once

/**
 * @file
 * The `lint` pass of erec_analyze: the repo-specific lint rules (see
 * the top-level README's "Correctness tooling" section).
 *
 * The rules encode invariants of this codebase that clang-tidy cannot
 * express:
 *
 *  - raw-throw: library code must raise errors through erec::fatal /
 *    erec::panic / ERC_CHECK / ERC_ASSERT (common/error.h), never a raw
 *    `throw`, so every error carries the ConfigError/InternalError
 *    taxonomy and uniform message formatting.
 *  - unseeded-random: no std::rand, srand, std::random_device or
 *    time(nullptr) anywhere outside common/rng.* — all stochastic code
 *    draws from the seeded erec::Rng so experiments are reproducible.
 *  - raw-thread: no std::thread / std::jthread construction outside
 *    src/elasticrec/runtime/ — concurrency goes through
 *    runtime::ThreadPool / runtime::Executor so thread counts stay an
 *    explicit, observable resource (tests may spawn threads freely).
 *  - raw-intrinsics: SIMD intrinsics (<immintrin.h>, __m256/__m512
 *    vector types, _mm*_ calls) live only in src/elasticrec/kernels/ —
 *    the kernel-backend registry is the one place vector code is
 *    allowed in library, bench and example code, so every SIMD path
 *    has a scalar reference implementation and a cross-backend
 *    bit-identity test.
 *  - iostream-in-library: library code logs through common/logging.h;
 *    #include <iostream> is only allowed in tests, benches, examples
 *    and tools.
 *  - header-pragma-once: every header starts with #pragma once.
 *  - header-namespace: library headers declare namespace erec.
 *  - unannotated-mutex: a std::mutex / std::shared_mutex member in a
 *    library header must come with an ERC_GUARDED_BY(member) /
 *    ERC_PT_GUARDED_BY(member) annotated field in the same file
 *    (common/thread_annotations.h), so clang's -Wthread-safety pass
 *    can actually check the locking discipline; runtime/ pool
 *    internals are exempt (the blessed concurrency module).
 *  - hot-path-annotation: ERC_HOT_PATH (common/hotpath.h) is only
 *    valid directly before a function declaration — the hotpath pass
 *    derives its roots from the declarator after the token —
 *    and ERC_HOT_PATH_ALLOW must carry a non-empty string reason
 *    (the waiver is the documentation). common/hotpath.h itself is
 *    exempt.
 *  - excess-default-params: no parameter list in a library header may
 *    declare more than two defaulted parameters — long trails of
 *    positional defaults are unreadable at call sites; fold them into
 *    an options struct (e.g. sim::ExperimentOptions, StackOptions).
 *    The allow() marker must sit on the line that opens the
 *    parameter list.
 *
 * A violation line can be suppressed with a trailing comment:
 *     // erec-lint: allow(<rule>)
 * The two header-* rules are file-scoped; their allow() marker may sit
 * on any line of the file.
 */

#include <string>
#include <vector>

namespace erec::lint {

/** One rule violation at a source location. */
struct Diagnostic
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

/** Which rule set applies to a file, derived from its repo path. */
enum class FileClass
{
    LibrarySource, //!< src/**.cc — all rules.
    LibraryHeader, //!< src/**.h — all rules + header-namespace.
    TestSource,    //!< tests/** — determinism rules only.
    BenchSource,   //!< bench/** — determinism rules only.
    ExampleSource, //!< examples/** — determinism rules only.
    Skip,          //!< Anything else (third-party, build trees, docs).
};

/** Classify a path by its directory components and extension. */
FileClass classifyPath(const std::string &path);

/**
 * Lint one file's content. `path` is repo-relative or absolute. Rules
 * match against the stripped text (analyze::stripCommentsAndStrings);
 * suppression markers are collected from the raw text.
 */
std::vector<Diagnostic> lintContent(const std::string &path,
                                    const std::string &content);

/** Format a diagnostic as "file:line: [rule] message". */
std::string formatDiagnostic(const Diagnostic &d);

} // namespace erec::lint
