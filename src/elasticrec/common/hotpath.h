#pragma once

/**
 * @file
 * Hot-path discipline annotations, consumed by the
 * `erec_analyze hotpath` static pass (tools/analyze). Both macros
 * expand to nothing: the annotations carry zero runtime cost and exist
 * purely as tokens the analyzer can see.
 *
 *  - ERC_HOT_PATH marks a function declaration as a hot-path *root*:
 *    the steady-state serving path enters through it, so the function
 *    and everything transitively reachable from it must not heap-
 *    allocate, block on I/O, throw, or take a non-try mutex (outside
 *    runtime/'s annotated queues). Place it directly before the
 *    declaration:
 *
 *        ERC_HOT_PATH
 *        std::vector<float> serve(const workload::Query &query) const;
 *
 *  - ERC_HOT_PATH_ALLOW("reason") suppresses analyzer findings. On a
 *    statement line inside a function body it exempts that line (and
 *    the line below it, for statements that wrap); directly before a
 *    function definition it exempts the whole function and stops
 *    traversal into it. The reason string is mandatory and must say
 *    *why* the violation is acceptable (e.g. "reserve-once at worker
 *    startup", "bounded by maxBatchSize"); the `erec_analyze lint`
 *    hot-path-annotation rule rejects empty reasons.
 *
 * DESIGN.md section 10 documents what counts as steady state and when
 * an ALLOW is appropriate.
 *
 * Pure preprocessor header, deliberately not inside namespace erec:
 */
// erec-lint: allow(header-namespace)

/** Marks a function declaration as a hot-path root. */
#define ERC_HOT_PATH

/**
 * Suppresses `erec_analyze hotpath` findings; see file comment for
 * scope.
 */
#define ERC_HOT_PATH_ALLOW(reason)
