#pragma once

/**
 * @file
 * The `conc` pass of erec_analyze: a static concurrency-discipline
 * gate that keeps the tree's locking provably disciplined before the
 * migration/chaos work starts stacking drain/kill protocols on top of
 * it (DESIGN.md §14).
 *
 * The pass runs on the front end's functions and call graph
 * (front_end.h) and runs three checks:
 *
 *  - lock-order-inversion: every `std::lock_guard` / `unique_lock` /
 *    `scoped_lock` site is an acquisition of a *canonical mutex* — the
 *    declared mutex member/global the lock argument resolves to,
 *    keyed `<dir>/<file-stem>::<name>` so a header's member and its
 *    sibling .cc's lock sites agree. Holding A while acquiring B
 *    (directly in the same body, or through a call whose transitive
 *    summary acquires B) adds the edge A -> B to the lock-acquisition
 *    graph; a cycle in that graph is a potential deadlock. Cycles are
 *    found with the front end's iterative Tarjan SCC and
 *    each edge of a cyclic SCC is reported with the concrete call path
 *    that acquires the pair in that order, so a two-lock inversion
 *    prints both acquisition paths.
 *  - blocking-under-lock: inside a held-lock scope, flag predicate-less
 *    condition-variable waits (`.wait(lk)` with one argument,
 *    `.wait_for`/`.wait_until` with two — spurious-wakeup bait),
 *    `sleep_for`/`sleep_until`, blocking I/O (the hotpath rule's
 *    pattern family), `.get()`/`.wait()` on a plain identifier (a
 *    future join), and any call to a function whose transitive summary
 *    blocks (so `BatchQueue::push` reachable under a lock is flagged
 *    at the call site). Files under src/elasticrec/runtime/ are exempt
 *    from *reporting* only — the blessed queues must block under their
 *    own locks — but their summaries still propagate to callers.
 *  - annotation coverage: every mutex member declared in a library
 *    header must carry at least one ERC_GUARDED_BY(member) /
 *    ERC_PT_GUARDED_BY(member) field in the same file
 *    (unannotated-mutex, the closed-world version of the lint pass's
 *    opt-in rule: no runtime/ exemption here), and every function that
 *    touches a guarded field must either acquire the guarding mutex in
 *    its body or carry a capability annotation (ERC_REQUIRES /
 *    ERC_ACQUIRE / ERC_RELEASE / ERC_NO_THREAD_SAFETY_ANALYSIS) on its
 *    definition (unguarded-access). Constructors/destructors — any
 *    function whose base name matches a class/struct declared in the
 *    same file group — are exempt: object construction is
 *    single-threaded by convention, exactly as clang -Wthread-safety
 *    treats it.
 *
 * Deliberate over-approximations, mirroring the hotpath pass: callees
 * resolve by base name, macros are not expanded, and lock scopes are
 * tracked at line/brace granularity (a lock declared on a line is held
 * until its enclosing brace block closes). `std::try_to_lock`,
 * `std::defer_lock` and `try_lock()` sites are NOT acquisitions (they
 * cannot deadlock / do not lock), and the arguments of one
 * `std::scoped_lock` never order against each other (std::lock's
 * deadlock-avoidance algorithm makes multi-acquire safe by
 * definition). Lambda bodies attribute to their enclosing function.
 *
 * Waivers use ERC_CONCLINT_ALLOW("reason")
 * (common/thread_annotations.h): on a line (or the line directly
 * above) it suppresses findings reported at that line; directly before
 * a function definition it exempts the whole function — its body is
 * not scanned and it contributes no summaries. The dynamic
 * counterpart is the TSan CI stress job (scripts/check.sh
 * tsan-stress), which actually interleaves the concurrency test
 * subset; the static gate exists so a lock-order inversion fails every
 * run, not just the unlucky ones.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "tools/analyze/front_end.h"

namespace erec::conclint {

using analyze::FileSet;

/** One concurrency-discipline violation at a source location. */
struct Violation
{
    /** "lock-order-inversion", "blocking-under-lock",
     *  "unannotated-mutex" or "unguarded-access". */
    std::string kind;
    std::string file;
    int line = 0;
    /** Base name of the containing function ("" for file-scope). */
    std::string function;
    /** Canonical mutex key the finding is about (the edge's target
     *  for inversions, the held mutex for blocking, the member for
     *  coverage findings). */
    std::string mutex;
    /** Concrete acquisition/call path, outermost frame first. Each
     *  step reads "Function (file:line)". */
    std::vector<std::string> path;
    /** Human-readable description (for inversions: the cycle). */
    std::string message;
};

/** One lock-acquisition-graph edge (exposed for tests). */
struct LockEdge
{
    std::string from; //!< Held mutex key.
    std::string to;   //!< Mutex key acquired while `from` is held.
    /** Witness path: "fn (file:line)" steps from the acquisition of
     *  `from` to the acquisition of `to`. */
    std::vector<std::string> path;
};

/** Full analysis result. */
struct Analysis
{
    std::size_t fileCount = 0;
    std::size_t functionCount = 0;
    /** Distinct canonical mutexes with at least one declaration. */
    std::size_t mutexCount = 0;
    /** Scoped-lock acquisition sites recognized. */
    std::size_t lockSiteCount = 0;
    /** Distinct edges in the lock-acquisition graph. */
    std::vector<LockEdge> edges;
    std::vector<Violation> violations;

    bool pass() const { return violations.empty(); }
};

/** Run the full pass over a file set. */
Analysis analyze(const FileSet &files);

/** "file:line: [kind] message" lines plus a PASS/FAIL summary; every
 *  inversion edge prints its full acquisition path. */
std::string renderText(const Analysis &analysis);

/** Deterministic JSON document (schema erec_conclint/v1). */
std::string renderJson(const Analysis &analysis);

} // namespace erec::conclint
