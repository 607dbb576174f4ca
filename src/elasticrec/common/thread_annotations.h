#pragma once

/**
 * @file
 * Clang thread-safety analysis annotations (the Abseil/LLVM macro
 * vocabulary, ERC_-prefixed). Under Clang the root CMakeLists enables
 * -Wthread-safety so mislocked access to ERC_GUARDED_BY state is a
 * compile-time diagnostic; under GCC the macros expand to nothing.
 *
 * Pure preprocessor header, deliberately not inside namespace erec:
 */
// erec-lint: allow(header-namespace)

#if defined(__clang__)
#define ERC_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define ERC_THREAD_ANNOTATION_ATTRIBUTE(x) // no-op
#endif

/** Marks a type as a lockable capability (e.g. a mutex wrapper). */
#define ERC_CAPABILITY(x) ERC_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/** Marks an RAII type that acquires a capability for its lifetime. */
#define ERC_SCOPED_CAPABILITY \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/** Data member readable/writable only with `x` held. */
#define ERC_GUARDED_BY(x) ERC_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/** Pointer member whose pointee is protected by `x`. */
#define ERC_PT_GUARDED_BY(x) \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/** Function that must be called with the given capabilities held. */
#define ERC_REQUIRES(...) \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/** Function that must be called with the capabilities NOT held. */
#define ERC_EXCLUDES(...) \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/** Function that acquires the given capabilities. */
#define ERC_ACQUIRE(...) \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/** Function that releases the given capabilities. */
#define ERC_RELEASE(...) \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/** Function returning a reference to the capability guarding it. */
#define ERC_RETURN_CAPABILITY(x) \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/** Escape hatch: function body is exempt from the analysis. */
#define ERC_NO_THREAD_SAFETY_ANALYSIS \
    ERC_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

/**
 * Waiver marker for the static concurrency gate (`erec_analyze conc`,
 * scripts/check.sh analyze). Expands to nothing — the analyzer
 * reads it lexically from the raw source:
 *
 *  - On a line (or the line directly above a statement) inside a
 *    function body it suppresses conclint findings reported at that
 *    line, and on a mutex member declaration it waives the
 *    ERC_GUARDED_BY coverage requirement for that member.
 *  - Directly before a function definition it exempts the whole
 *    function: the body is not scanned and contributes no lock or
 *    blocking summaries to callers.
 *
 * The reason string is mandatory and should say why the blocking call
 * or annotation gap is safe (e.g. "cold path; lock only serializes the
 * write"). Mirrors the hotpath gate's waiver macro (common/hotpath.h).
 */
#define ERC_CONCLINT_ALLOW(reason)
