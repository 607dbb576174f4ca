#pragma once

/**
 * @file
 * The `arch` pass of erec_analyze: extracts the `#include` graph of
 * the first-party tree, enforces the declared module layer DAG, and
 * detects include cycles.
 *
 * ElasticRec's modules form a strict layering (common at the bottom,
 * sim at the top — DESIGN.md §9); the serving decomposition only stays
 * refactorable while that DAG holds. The checks:
 *
 *  - layer-edge: every cross-module include must land inside the
 *    including module's *transitive closure* of allowed dependencies,
 *    as declared in tools/analyze/layers.conf (one line per module
 *    listing its direct dependencies; `*` = unconstrained, used for
 *    tools/tests/bench/examples).
 *  - include-cycle: the file-level include graph must be acyclic;
 *    strongly connected components are reported with a concrete
 *    cycle path (a.h -> b.h -> a.h).
 *  - undeclared-module: every scanned module must have a layers.conf
 *    entry, so new modules cannot dodge the gate.
 *
 * Include directives are read from the front end's stripped text, so
 * `#include` in a comment or a string never creates an edge. Header
 * self-containment is checked separately by the CMake
 * `archlint_headers` target (one generated TU per src/elasticrec
 * header). Malformed configs raise erec::ConfigError, which the CLI
 * maps to exit 2.
 */

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/front_end.h"

namespace erec::archlint {

using analyze::FileSet;

/** One `#include` directive at a source location. */
struct IncludeDirective
{
    int line = 0;
    /** The path between the delimiters, verbatim. */
    std::string path;
    /** True for <...> (system headers — never graph edges). */
    bool angled = false;
};

/**
 * Scan one file's content for include directives. Comments, string
 * and character literals are blanked first, so commented-out includes
 * and includes inside literals are ignored.
 */
std::vector<IncludeDirective> extractIncludes(const std::string &content);

/** The declared layer DAG, parsed from layers.conf. */
struct LayerConfig
{
    /** Modules in declaration order. */
    std::vector<std::string> order;
    /** module -> directly allowed dependencies. */
    std::map<std::string, std::vector<std::string>> direct;
    /** Modules declared with `*` (may include anything). */
    std::set<std::string> wildcard;
    /** module -> transitive closure of allowed dependencies. */
    std::map<std::string, std::set<std::string>> closure;

    bool declares(const std::string &module) const;
    /** True when `from` may include `to` (closure or wildcard). */
    bool allows(const std::string &from, const std::string &to) const;
};

/**
 * Parse a layers.conf document. Grammar, one entry per line:
 *
 *     module: dep dep ...     # trailing comments allowed
 *     module: *               # unconstrained (tools/tests/...)
 *     module:                 # bottom layer, no dependencies
 *
 * Raises erec::ConfigError (with the line number) on a line without a
 * `:`, an invalid module name, a duplicate entry, a dependency on an
 * undeclared module, or a cycle among the declarations themselves.
 */
LayerConfig parseLayerConfig(const std::string &text);

/**
 * Module owning a repo-relative path: src/elasticrec/<m>/... -> <m>;
 * anything else maps to its first directory component ("tools",
 * "bench", "tests", "examples").
 */
std::string moduleOf(const std::string &path);

/** One architecture violation. */
struct Violation
{
    /** "layer-edge", "include-cycle" or "undeclared-module". */
    std::string kind;
    /** File the violation anchors to ("" for undeclared-module). */
    std::string file;
    int line = 0;
    std::string fromModule;
    std::string toModule;
    std::string message;
};

/** Full analysis result. */
struct Analysis
{
    std::size_t fileCount = 0;
    /** Resolved first-party include edges (deduplicated). */
    std::size_t edgeCount = 0;
    std::vector<Violation> violations;

    bool pass() const { return violations.empty(); }
};

/**
 * Run all checks over a file set. Quoted includes resolve against the
 * including file's directory, then `src/<path>`, then `<path>` from
 * the repo root; unresolved or angled includes never create edges.
 */
Analysis analyze(const FileSet &files, const LayerConfig &config);

/** "file:line: [kind] message" lines plus a PASS/FAIL summary. */
std::string renderText(const Analysis &analysis);

/** Deterministic JSON document (schema erec_archlint/v1). */
std::string renderJson(const Analysis &analysis);

} // namespace erec::archlint
