#pragma once

/**
 * @file
 * Source front end shared by every erec_analyze pass (lint, arch,
 * hotpath, conc). All passes see code through one comment/string
 * stripper, one preprocessor blanker, one function extractor and one
 * base-name call graph, so two gates can never disagree on what counts
 * as code.
 *
 * Everything works on an in-memory FileSet (repo-relative path ->
 * content) so tests drive the passes without touching the filesystem;
 * the CLI (cli.h) is the only part that reads the tree.
 */

#include <cstddef>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace erec::analyze {

/** Repo-relative path -> file content. */
using FileSet = std::map<std::string, std::string>;

/** Split into lines; the trailing newline does not open an empty line. */
std::vector<std::string> splitLines(const std::string &content);

/** `s` without leading and trailing whitespace. */
std::string trim(const std::string &s);

bool isIdentChar(char c);

/** Keywords that can precede a `(` but never name a function. */
const std::set<std::string> &keywords();

/** True for files under src/elasticrec/runtime/, the blessed
 *  concurrency module whose queues must lock and block. */
bool isRuntimeFile(const std::string &path);

/**
 * Blank out comments, string literals and char literals (raw strings
 * included), preserving newlines and tabs so findings keep exact line
 * numbers. A `'` inside a pp-number (a token that starts with a digit,
 * e.g. `62'423`) is a digit separator and stays code.
 */
std::string stripCommentsAndStrings(const std::string &content);

/** One extracted function definition. */
struct FunctionDef
{
    /** Base name (after the last `::`). */
    std::string name;
    /** Name as written, e.g. "DenseShardServer::serve". */
    std::string display;
    std::string file;
    /** 1-based line of the function's identifier. */
    int line = 0;
    /** 1-based inclusive line span of the `{...}` body. */
    int bodyBeginLine = 0;
    int bodyEndLine = 0;
};

/**
 * Extract every function definition from one file's content: trailing
 * const/noexcept/attribute macros, trailing return types and ctor init
 * lists are understood, and bodies are skipped as units so nested
 * lambdas attribute to their enclosing function. Preprocessor lines
 * are blanked first, so macro bodies define nothing.
 */
std::vector<FunctionDef> extractFunctions(const std::string &path,
                                          const std::string &content);

/** One file as the function-level passes see it. */
struct SourceFile
{
    std::string path;
    std::vector<std::string> rawLines;
    /** Stripped + preprocessor-blanked text, whole and split. */
    std::string code;
    std::vector<std::string> codeLines;
    /** This file's functions: SourceTree::functions[begin, end). */
    std::size_t functionsBegin = 0;
    std::size_t functionsEnd = 0;
};

/** One call in a function body, resolved to a definition. */
struct CallSite
{
    int line = 0;
    std::size_t callee = 0; //!< Index into SourceTree::functions.
};

struct Function
{
    FunctionDef def;
    std::size_t file = 0; //!< Index into SourceTree::files.
    /** Every `name(` in the body whose name has definitions, once per
     *  matching definition, in source order. Self-calls included. */
    std::vector<CallSite> calls;
};

/**
 * A parsed tree plus its intra-repo call graph. Callees resolve by
 * base name: a call to `serve` reaches every `serve` definition (an
 * over-approximation that errs toward scanning more; macros are not
 * expanded, so ERC_CHECK creates no edges).
 */
struct SourceTree
{
    std::vector<SourceFile> files; //!< FileSet order.
    std::vector<Function> functions;
};

SourceTree parseTree(const FileSet &files);

/**
 * Waivers from a raw-line marker such as ERC_HOT_PATH_ALLOW("reason").
 * Markers are read from the raw text, so a trailing-comment marker
 * works. Inside a body a marker suppresses its own line and the next;
 * outside any body it exempts the next definition of its file.
 */
struct Waivers
{
    std::vector<std::set<int>> lines; //!< Per function.
    std::vector<bool> exempt;         //!< Per function.
    std::vector<std::vector<int>> markers; //!< Per file, 1-based lines.
};

Waivers collectWaivers(const SourceTree &tree, const std::regex &marker);

/**
 * Strongly connected component id of every node of a directed graph
 * (iterative Tarjan, so deep chains cannot overflow the stack). Two
 * nodes share an id exactly when each reaches the other.
 */
std::vector<std::size_t>
componentIds(const std::vector<std::vector<std::size_t>> &adjacency);

} // namespace erec::analyze
