#pragma once

/**
 * @file
 * The `hotpath` pass of erec_analyze: a dependency-free static pass
 * that keeps the steady-state serving path free of per-query heap
 * churn, blocking I/O and surprise locking (DESIGN.md §10).
 *
 * Functions annotated with ERC_HOT_PATH (common/hotpath.h) are the hot
 * roots. The pass walks the front end's call graph (front_end.h) and
 * scans every function transitively reachable from a root for:
 *
 *  - heap-alloc: `new`, make_unique/make_shared, malloc/calloc/realloc.
 *  - container-growth: push_back / emplace_back / push_front /
 *    emplace_front / resize / reserve / insert / emplace member calls
 *    (assign() is deliberately exempt — it reuses capacity).
 *  - string-alloc: std::to_string, std::string construction,
 *    ostringstream / stringstream.
 *  - blocking-io: std::cout/cerr/clog/cin, printf-family and C file
 *    APIs, ifstream/ofstream/fstream, getline.
 *  - throw: any `throw` expression (hot paths report via status, not
 *    exceptions; ERC_CHECK sits behind an unexpanded macro and is the
 *    blessed precondition mechanism).
 *  - mutex-lock: lock_guard / unique_lock / scoped_lock construction
 *    or a non-try .lock() call. Files under src/elasticrec/runtime/
 *    are exempt from this rule only — the blessed queues must lock,
 *    and their waits are annotated with AllocGate regions instead.
 *
 * Intentional, amortised allocations are waived in place with
 * ERC_HOT_PATH_ALLOW("reason") (analyze::Waivers): on (or on the line
 * directly above) a statement inside a body it suppresses that line;
 * outside any body it exempts the next function definition entirely
 * and stops traversal into it.
 *
 * The pass is deliberately lexical: one annotated `serve` makes every
 * `serve` definition a root, and bodies the extractor cannot parse
 * (e.g. operator() definitions) are skipped as units. The
 * complementary *dynamic* check, common/alloc_tracker.h, counts real
 * allocations inside AllocGate regions at run time; the two together
 * gate `allocs_per_query` to exactly zero in CI.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "tools/analyze/front_end.h"

namespace erec::hotpath {

using analyze::FileSet;

/** One hot-path violation at a source location. */
struct Violation
{
    /** "heap-alloc", "container-growth", "string-alloc",
     *  "blocking-io", "throw" or "mutex-lock". */
    std::string kind;
    std::string file;
    int line = 0;
    /** Base name of the containing function. */
    std::string function;
    /** The ERC_HOT_PATH root this function is reachable from. */
    std::string root;
    /** Concrete call chain, root first, containing function last. */
    std::vector<std::string> path;
    /** The offending source line (raw text, trimmed). */
    std::string message;
};

/** Full analysis result. */
struct Analysis
{
    std::size_t fileCount = 0;
    std::size_t functionCount = 0;
    /** Distinct ERC_HOT_PATH-annotated root names. */
    std::size_t rootCount = 0;
    /** Function definitions reachable from any root. */
    std::size_t reachableCount = 0;
    std::vector<Violation> violations;

    bool pass() const { return violations.empty(); }
};

/** Run the full pass over a file set. */
Analysis analyze(const FileSet &files);

/** "file:line: [kind] message" lines plus a PASS/FAIL summary. */
std::string renderText(const Analysis &analysis);

/** Deterministic JSON document (schema erec_hotpath/v1). */
std::string renderJson(const Analysis &analysis);

} // namespace erec::hotpath
