#include "tools/analyze/conc.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

namespace erec::conclint {

using analyze::isIdentChar;
using analyze::jsonEscape;
using analyze::trim;

namespace {

/** True for headers that belong to the library tree (under src/). */
bool
isLibraryHeader(const std::string &path)
{
    const bool header =
        path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
    return header && (path.rfind("src/", 0) == 0 ||
                      path.find("/src/") != std::string::npos);
}

/** Canonical group of a path: extension dropped, `src/elasticrec/`
 *  (or `src/`) prefix dropped, so `runtime/thread_pool.h` and its
 *  sibling `.cc` share the key `runtime/thread_pool`. */
std::string
groupOf(const std::string &path)
{
    std::string stem = path;
    const std::size_t dot = stem.find_last_of('.');
    const std::size_t slash = stem.find_last_of('/');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash))
        stem = stem.substr(0, dot);
    for (const char *prefix : {"src/elasticrec/", "src/"}) {
        const std::string p(prefix);
        if (stem.rfind(p, 0) == 0)
            return stem.substr(p.size());
        const std::size_t mid = stem.find("/" + p);
        if (mid != std::string::npos)
            return stem.substr(mid + 1 + p.size());
    }
    return stem;
}

/** Last identifier of a member expression ("t.mu" -> "mu"). Returns
 *  "" when the expression does not end in a plain identifier. */
std::string
lastIdentOf(const std::string &expr)
{
    const std::string e = trim(expr);
    if (e.empty() || !isIdentChar(e.back()))
        return "";
    std::size_t k = e.size();
    while (k > 0 && isIdentChar(e[k - 1]))
        --k;
    return e.substr(k);
}

/** Split an argument list on top-level commas. */
std::vector<std::string>
splitArgs(const std::string &args)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (const char c : args) {
        if (c == '(' || c == '<' || c == '[' || c == '{')
            ++depth;
        else if (c == ')' || c == '>' || c == ']' || c == '}')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(trim(cur));
            cur.clear();
            continue;
        }
        cur.push_back(c);
    }
    if (!trim(cur).empty())
        out.push_back(trim(cur));
    return out;
}

/** One declared mutex (member or file-scope). */
struct MutexDecl
{
    std::string key; //!< group::name
    std::string name;
    std::string file;
    int line = 0;
    bool inLibraryHeader = false;
    /** True when the declaration line sits inside a function body
     *  (a local mutex, not a member). */
    bool local = false;
};

/** A function's interprocedural summary. */
struct Summary
{
    /** Mutex key -> acquisition path ("fn (file:line)" steps). */
    std::map<std::string, std::vector<std::string>> acquires;
    /** Non-empty when a call may block: path to the blocking site. */
    std::vector<std::string> blocksPath;
    std::string blocksKind; //!< Violation kind text for the site.
};

struct Node
{
    analyze::FunctionDef def;
    std::size_t fileIndex = 0;
    std::string group;
    bool exempt = false; //!< Function-level ERC_CONCLINT_ALLOW.
    std::set<int> allowLines;
    /** Callee node index -> first call line. */
    std::map<std::size_t, int> callees;
    Summary summary;
};

/** A lock held at some point of a body scan. */
struct Held
{
    std::string key;
    int depth = 0; //!< Brace depth at acquisition; released below it.
    int line = 0;  //!< Acquisition line.
};

const std::regex &
lockDeclRe()
{
    // std::lock_guard<M> name(args); / std::scoped_lock name(args);
    // The template argument list and the variable name are optional
    // captures so scoped_lock's CTAD spelling parses too.
    static const std::regex re(
        R"re(\b(lock_guard|unique_lock|shared_lock|scoped_lock)\s*(?:<[^<>;]*(?:<[^<>;]*>)?[^<>;]*>)?\s+([A-Za-z_][A-Za-z0-9_]*)\s*[({]([^;]*?)[)}]\s*;)re");
    return re;
}

const std::regex &
blockingIoRe()
{
    static const std::regex re(
        R"(\bstd\s*::\s*(cout|cerr|clog|cin)\b|\b(printf|fprintf|fputs|fwrite|fread|fopen|fflush)\s*\(|\bifstream\b|\bofstream\b|\bfstream\b|\bgetline\s*\()");
    return re;
}

/** "Display (file:line)" step for witness paths. */
std::string
step(const Node &node, const std::string &file, int line)
{
    std::ostringstream oss;
    oss << node.def.display << " (" << file << ":" << line << ")";
    return oss.str();
}

} // namespace

Analysis
analyze(const FileSet &files)
{
    const analyze::SourceTree tree = analyze::parseTree(files);
    static const std::regex kAllow(R"(ERC_CONCLINT_ALLOW\(\s*\")");
    const analyze::Waivers waivers = analyze::collectWaivers(tree, kAllow);

    Analysis analysis;
    analysis.fileCount = files.size();

    std::vector<Node> nodes(tree.functions.size());
    std::map<std::string, MutexDecl> mutexes; // key -> decl
    /** name -> keys, for cross-group fallback resolution. */
    std::map<std::string, std::set<std::string>> mutexKeysByName;
    /** group -> (guarded field name -> guarding mutex key). */
    std::map<std::string, std::map<std::string, std::string>> guarded;
    /** group -> class/struct names (ctor/dtor exemption). */
    std::map<std::string, std::set<std::string>> classNames;

    static const std::regex kMutexDecl(
        R"(\bstd\s*::\s*(?:shared_|recursive_|timed_)?mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*;)");
    static const std::regex kGuardedField(
        R"(([A-Za-z_][A-Za-z0-9_]*)\s+ERC_(?:PT_)?GUARDED_BY\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\))");
    static const std::regex kClass(
        R"(\b(?:class|struct)\s+([A-Za-z_][A-Za-z0-9_]*))");

    for (std::size_t fi = 0; fi < tree.files.size(); ++fi) {
        const analyze::SourceFile &pf = tree.files[fi];
        const std::string group = groupOf(pf.path);
        for (std::size_t ni = pf.functionsBegin; ni < pf.functionsEnd;
             ++ni) {
            Node &node = nodes[ni];
            node.def = tree.functions[ni].def;
            node.fileIndex = fi;
            node.group = group;
            node.exempt = waivers.exempt[ni];
            node.allowLines = waivers.lines[ni];
        }

        // File-level ALLOW lines also waive declaration-site findings
        // (unannotated-mutex) on their own / the following line.
        std::set<int> file_allow;
        for (const int al : waivers.markers[fi]) {
            file_allow.insert(al);
            file_allow.insert(al + 1);
        }

        // Mutex declarations.
        for (std::size_t li = 0; li < pf.codeLines.size(); ++li) {
            std::smatch m;
            const std::string &rest = pf.codeLines[li];
            if (!std::regex_search(rest, m, kMutexDecl))
                continue;
            const int line_no = static_cast<int>(li) + 1;
            MutexDecl decl;
            decl.name = m[1].str();
            decl.key = group + "::" + decl.name;
            decl.file = pf.path;
            decl.line = line_no;
            decl.inLibraryHeader = isLibraryHeader(pf.path);
            for (std::size_t ni = pf.functionsBegin; ni < pf.functionsEnd;
                 ++ni) {
                if (line_no >= nodes[ni].def.bodyBeginLine &&
                    line_no <= nodes[ni].def.bodyEndLine)
                    decl.local = true;
            }
            if (decl.inLibraryHeader && !decl.local &&
                file_allow.count(line_no) != 0) {
                // ERC_CONCLINT_ALLOW on the declaration waives the
                // coverage requirement for this member.
                decl.inLibraryHeader = false;
            }
            mutexKeysByName[decl.name].insert(decl.key);
            mutexes.emplace(decl.key, std::move(decl));
        }

        // Guarded fields: field -> guarding mutex key (same group).
        const std::string &whole = pf.code;
        for (auto it = std::sregex_iterator(whole.begin(), whole.end(),
                                            kGuardedField);
             it != std::sregex_iterator(); ++it) {
            const std::string field = (*it)[1].str();
            const std::string mux = (*it)[2].str();
            guarded[group][field] = group + "::" + mux;
        }

        // Class/struct names (constructor/destructor exemption).
        for (auto it =
                 std::sregex_iterator(whole.begin(), whole.end(), kClass);
             it != std::sregex_iterator(); ++it)
            classNames[group].insert((*it)[1].str());
    }
    analysis.functionCount = nodes.size();
    analysis.mutexCount = mutexes.size();

    // ---- Resolve a lock argument to a canonical mutex key. ----
    auto resolveMutex = [&](const std::string &expr,
                            const std::string &group) -> std::string {
        const std::string name = lastIdentOf(expr);
        if (name.empty())
            return "";
        const std::string local_key = group + "::" + name;
        if (mutexes.count(local_key) != 0)
            return local_key;
        const auto it = mutexKeysByName.find(name);
        if (it != mutexKeysByName.end() && it->second.size() == 1)
            return *it->second.begin();
        // Unknown declaration site: key it to this group so repeated
        // references still collapse to one graph node.
        return local_key;
    };

    // ---- Call graph, without self-calls and waived functions. ----
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        if (nodes[ni].exempt)
            continue;
        for (const analyze::CallSite &call : tree.functions[ni].calls)
            if (call.callee != ni && !nodes[call.callee].exempt)
                nodes[ni].callees.emplace(call.callee, call.line);
    }

    // ---- Per-body lexical scan: lock sites + direct blocking. ----
    struct Acquisition
    {
        std::string key;
        int line = 0;
    };
    std::vector<std::vector<Acquisition>> acquisitions(nodes.size());

    struct EdgeInfo
    {
        std::vector<std::string> path;
    };
    std::map<std::pair<std::string, std::string>, EdgeInfo> edges;

    static const std::regex kCvWait(
        R"((\.|->)\s*(wait|wait_for|wait_until)\s*\(([^;()]*(?:\([^()]*\))?[^;()]*)\))");
    static const std::regex kSleep(
        R"(\bsleep_for\s*\(|\bsleep_until\s*\()");
    static const std::regex kFutureJoin(
        R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(\.|->)\s*(get|wait)\s*\(\s*\))");
    static const std::regex kVarLock(
        R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(\.|->)\s*(lock|unlock)\s*\(\s*\))");

    // First pass collects every acquisition (for summaries and for the
    // unguarded-access check); the blocking/edge reports need held
    // context and run in the second pass below.
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        Node &node = nodes[ni];
        if (node.exempt)
            continue;
        const analyze::SourceFile &pf = tree.files[node.fileIndex];
        for (int li = node.def.bodyBeginLine;
             li <= node.def.bodyEndLine &&
             li <= static_cast<int>(pf.codeLines.size());
             ++li) {
            const std::string &line =
                pf.codeLines[static_cast<std::size_t>(li - 1)];
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                lockDeclRe());
                 it != std::sregex_iterator(); ++it) {
                const std::string holder = (*it)[1].str();
                const std::string args = (*it)[3].str();
                if (args.find("try_to_lock") != std::string::npos ||
                    args.find("defer_lock") != std::string::npos)
                    continue; // Non-blocking / non-acquiring.
                for (const std::string &arg : splitArgs(args)) {
                    if (arg.find("adopt_lock") != std::string::npos)
                        continue;
                    const std::string key =
                        resolveMutex(arg, node.group);
                    if (key.empty())
                        continue;
                    ++analysis.lockSiteCount;
                    acquisitions[ni].push_back({key, li});
                    if (holder != "scoped_lock")
                        break; // Guards take exactly one mutex.
                }
            }
        }
    }

    // ---- Summaries: transitive acquires + may-block, to fixpoint. ----
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        Node &node = nodes[ni];
        const analyze::SourceFile &pf = tree.files[node.fileIndex];
        for (const Acquisition &acq : acquisitions[ni])
            node.summary.acquires.emplace(
                acq.key,
                std::vector<std::string>{step(node, pf.path, acq.line)});
        for (int li = node.def.bodyBeginLine;
             li <= node.def.bodyEndLine &&
             li <= static_cast<int>(pf.codeLines.size());
             ++li) {
            const std::string &line =
                pf.codeLines[static_cast<std::size_t>(li - 1)];
            std::string what;
            std::smatch m;
            if (std::regex_search(line, kSleep))
                what = "sleeps";
            else if (std::regex_search(line, blockingIoRe()))
                what = "performs blocking I/O";
            else if (std::regex_search(line, m, kCvWait))
                what = "waits on a condition variable";
            if (what.empty() || node.exempt)
                continue;
            if (node.summary.blocksPath.empty()) {
                node.summary.blocksPath = {step(node, pf.path, li)};
                node.summary.blocksKind = what;
            }
        }
    }
    // Propagate through the call graph until stable (graph is small).
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
            Node &node = nodes[ni];
            if (node.exempt)
                continue;
            const analyze::SourceFile &pf = tree.files[node.fileIndex];
            for (const auto &[callee, call_line] : node.callees) {
                const Node &target = nodes[callee];
                for (const auto &[key, path] : target.summary.acquires) {
                    if (node.summary.acquires.count(key) != 0)
                        continue;
                    std::vector<std::string> chain{
                        step(node, pf.path, call_line)};
                    chain.insert(chain.end(), path.begin(), path.end());
                    node.summary.acquires.emplace(key, std::move(chain));
                    changed = true;
                }
                if (node.summary.blocksPath.empty() &&
                    !target.summary.blocksPath.empty()) {
                    node.summary.blocksPath = {
                        step(node, pf.path, call_line)};
                    node.summary.blocksPath.insert(
                        node.summary.blocksPath.end(),
                        target.summary.blocksPath.begin(),
                        target.summary.blocksPath.end());
                    node.summary.blocksKind = target.summary.blocksKind;
                    changed = true;
                }
            }
        }
    }

    // ---- Second pass: held-lock scopes, edges, blocking reports. ----
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        Node &node = nodes[ni];
        if (node.exempt)
            continue;
        const analyze::SourceFile &pf = tree.files[node.fileIndex];
        const bool exempt_file = analyze::isRuntimeFile(pf.path);

        const auto &calls = tree.functions[ni].calls;
        std::size_t next_call = 0;
        std::vector<Held> held;
        /** unique_lock variable name -> (mutex key, decl depth). */
        std::map<std::string, std::pair<std::string, int>> lockVars;
        int depth = 0;

        auto addEdge = [&](const std::string &from, int from_line,
                           const std::string &to,
                           std::vector<std::string> to_path) {
            if (from == to)
                return;
            const auto key = std::make_pair(from, to);
            if (edges.count(key) != 0)
                return;
            EdgeInfo info;
            info.path.push_back(step(node, pf.path, from_line));
            for (auto &s : to_path)
                info.path.push_back(std::move(s));
            edges.emplace(key, std::move(info));
        };

        auto acquireAt = [&](const std::string &key, int li,
                             int at_depth, bool allowed) {
            if (!allowed) {
                for (const Held &h : held)
                    addEdge(h.key, h.line, key,
                            {step(node, pf.path, li)});
            }
            held.push_back({key, at_depth, li});
        };

        auto reportBlock = [&](int li, const std::string &what,
                               const std::vector<std::string> &tail) {
            if (exempt_file || held.empty() ||
                node.allowLines.count(li) != 0)
                return;
            const Held &h = held.back();
            Violation v;
            v.kind = "blocking-under-lock";
            v.file = pf.path;
            v.line = li;
            v.function = node.def.display;
            v.mutex = h.key;
            v.path.push_back(step(node, pf.path, h.line));
            for (const auto &s : tail)
                v.path.push_back(s);
            const std::size_t raw = static_cast<std::size_t>(li - 1);
            v.message = what + " while holding " + h.key +
                        " (acquired line " + std::to_string(h.line) +
                        "): " +
                        (raw < pf.rawLines.size()
                             ? trim(pf.rawLines[raw])
                             : std::string());
            analysis.violations.push_back(std::move(v));
        };

        for (int li = node.def.bodyBeginLine;
             li <= node.def.bodyEndLine &&
             li <= static_cast<int>(pf.codeLines.size());
             ++li) {
            const std::string &line =
                pf.codeLines[static_cast<std::size_t>(li - 1)];
            const bool allowed = node.allowLines.count(li) != 0;

            // Brace depth at a column of this line (braces are folded
            // into `depth` only once the whole line is processed, so
            // events mid-line need the prefix count).
            auto depthAt = [&](std::size_t pos) {
                int d = depth;
                for (std::size_t k = 0; k < pos && k < line.size(); ++k) {
                    if (line[k] == '{')
                        ++d;
                    else if (line[k] == '}')
                        --d;
                }
                return d;
            };

            // Scoped lock declarations (acquisitions).
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                lockDeclRe());
                 it != std::sregex_iterator(); ++it) {
                const std::string holder = (*it)[1].str();
                const std::string var = (*it)[2].str();
                const std::string args = (*it)[3].str();
                if (args.find("try_to_lock") != std::string::npos ||
                    args.find("defer_lock") != std::string::npos)
                    continue;
                // scoped_lock's multi-acquire uses std::lock's
                // deadlock-avoidance: its own arguments never order
                // against each other, so collect first, then admit.
                std::vector<std::string> keys;
                for (const std::string &arg : splitArgs(args)) {
                    if (arg.find("adopt_lock") != std::string::npos)
                        continue;
                    const std::string key =
                        resolveMutex(arg, node.group);
                    if (!key.empty())
                        keys.push_back(key);
                    if (holder != "scoped_lock")
                        break;
                }
                const int at_depth =
                    depthAt(static_cast<std::size_t>(it->position(0)));
                // Edges only against locks held BEFORE this site: the
                // members of one scoped_lock are admitted as a group
                // and never order against each other.
                const std::size_t held_before = held.size();
                for (const std::string &key : keys) {
                    if (!allowed) {
                        for (std::size_t h = 0; h < held_before; ++h)
                            addEdge(held[h].key, held[h].line, key,
                                    {step(node, pf.path, li)});
                    }
                    held.push_back({key, at_depth, li});
                }
                if (holder == "unique_lock" && keys.size() == 1)
                    lockVars[var] = {keys.front(), at_depth};
            }

            // Manual lock()/unlock() on unique_lock vars or mutexes.
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kVarLock);
                 it != std::sregex_iterator(); ++it) {
                const std::string recv = (*it)[1].str();
                const bool is_unlock = (*it)[3].str() == "unlock";
                std::string key;
                int at_depth =
                    depthAt(static_cast<std::size_t>(it->position(0)));
                const auto lv = lockVars.find(recv);
                if (lv != lockVars.end()) {
                    key = lv->second.first;
                    at_depth = lv->second.second;
                } else if (mutexes.count(node.group + "::" + recv) !=
                           0) {
                    key = node.group + "::" + recv;
                } else {
                    continue;
                }
                if (is_unlock) {
                    for (std::size_t h = held.size(); h > 0; --h) {
                        if (held[h - 1].key == key) {
                            held.erase(held.begin() +
                                       static_cast<std::ptrdiff_t>(h - 1));
                            break;
                        }
                    }
                } else {
                    acquireAt(key, li, at_depth, allowed);
                }
            }

            // Predicate-less condition-variable waits. A 1-argument
            // .wait(lk) / 2-argument .wait_for(lk, d) has no predicate
            // and relies on the caller re-checking against spurious
            // wakeups; flag it whether or not we resolved the lock.
            std::smatch cvm;
            std::string tail = line;
            while (std::regex_search(tail, cvm, kCvWait)) {
                const std::string fn = cvm[2].str();
                const std::string args = cvm[3].str();
                const std::size_t argc = splitArgs(args).size();
                const bool cv_form = argc >= (fn == "wait" ? 1u : 2u);
                const bool has_pred =
                    argc >= (fn == "wait" ? 2u : 3u);
                const int li_no = li;
                if (cv_form && !has_pred && !exempt_file &&
                    node.allowLines.count(li_no) == 0) {
                    Violation v;
                    v.kind = "blocking-under-lock";
                    v.file = pf.path;
                    v.line = li_no;
                    v.function = node.def.display;
                    v.mutex = held.empty() ? "" : held.back().key;
                    v.path.push_back(step(node, pf.path, li_no));
                    v.message =
                        "condition-variable " + fn +
                        " without a predicate: spurious wakeups make "
                        "the guarded state unreliable; pass the "
                        "predicate overload";
                    analysis.violations.push_back(std::move(v));
                } else if (!cv_form && argc <= 1) {
                    // Zero-arg .wait() (a future join) is handled by
                    // the future-join pattern below.
                }
                tail = cvm.suffix().str();
            }

            // Direct blocking patterns under a held lock.
            if (std::regex_search(line, kSleep))
                reportBlock(li, "sleeps", {});
            if (std::regex_search(line, blockingIoRe()))
                reportBlock(li, "performs blocking I/O", {});
            std::smatch fj;
            std::string fj_tail = line;
            while (std::regex_search(fj_tail, fj, kFutureJoin)) {
                const std::string recv = fj[1].str();
                if (recv != "this" && lockVars.count(recv) == 0 &&
                    analyze::keywords().count(recv) == 0)
                    reportBlock(li, "joins a future (." + fj[3].str() +
                                        "() on `" + recv + "`)",
                                {});
                fj_tail = fj.suffix().str();
            }

            // Calls while holding: edges + transitive blocking.
            for (; next_call < calls.size() && calls[next_call].line == li;
                 ++next_call) {
                const std::size_t target = calls[next_call].callee;
                if (held.empty() || target == ni || nodes[target].exempt)
                    continue;
                const Summary &sum = nodes[target].summary;
                if (!allowed) {
                    for (const auto &[key, path] : sum.acquires) {
                        bool already = false;
                        for (const Held &h : held)
                            if (h.key == key)
                                already = true;
                        if (already)
                            continue;
                        // The call site orders the locks: it leads the
                        // callee's acquisition path.
                        std::vector<std::string> via{
                            step(node, pf.path, li)};
                        via.insert(via.end(), path.begin(), path.end());
                        for (const Held &h : held)
                            addEdge(h.key, h.line, key, via);
                    }
                }
                if (!sum.blocksPath.empty())
                    reportBlock(li,
                                "calls " + nodes[target].def.display +
                                    ", which " + sum.blocksKind,
                                sum.blocksPath);
            }

            // Brace tracking: release locks whose scope closed.
            for (const char c : line) {
                if (c == '{')
                    ++depth;
                else if (c == '}')
                    --depth;
            }
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const Held &h) {
                                          return h.depth > depth;
                                      }),
                       held.end());
            for (auto it = lockVars.begin(); it != lockVars.end();) {
                if (it->second.second > depth)
                    it = lockVars.erase(it);
                else
                    ++it;
            }
        }
    }

    for (const auto &[key, info] : edges)
        analysis.edges.push_back({key.first, key.second, info.path});

    // ---- Lock-order cycles: SCCs of the edge graph. ----
    {
        std::vector<std::string> keys;
        std::map<std::string, std::size_t> index;
        for (const auto &[edge, info] : edges) {
            for (const std::string &k : {edge.first, edge.second}) {
                if (index.count(k) == 0) {
                    index.emplace(k, keys.size());
                    keys.push_back(k);
                }
            }
        }
        std::vector<std::vector<std::size_t>> adj(keys.size());
        for (const auto &[edge, info] : edges)
            adj[index[edge.first]].push_back(index[edge.second]);

        const std::size_t n = keys.size();
        const auto comp = analyze::componentIds(adj);

        // Component member counts; self-loops are impossible (addEdge
        // drops from==to), so any multi-member component is a cycle.
        std::map<std::size_t, std::size_t> comp_size;
        for (const std::size_t c : comp)
            ++comp_size[c];
        for (const auto &[edge, info] : edges) {
            const std::size_t a = index[edge.first];
            const std::size_t b = index[edge.second];
            if (comp[a] != comp[b] || comp_size[comp[a]] < 2)
                continue;
            std::string members;
            for (std::size_t v = 0; v < n; ++v) {
                if (comp[v] != comp[a])
                    continue;
                members += (members.empty() ? "" : ", ") + keys[v];
            }
            Violation v;
            v.kind = "lock-order-inversion";
            // Anchor the report at the edge's first witness step.
            const std::string &first = info.path.front();
            const std::size_t paren = first.rfind('(');
            const std::size_t colon = first.rfind(':');
            if (paren != std::string::npos &&
                colon != std::string::npos && colon > paren) {
                v.file = first.substr(paren + 1, colon - paren - 1);
                v.line = std::atoi(first.c_str() + colon + 1);
                v.function = trim(first.substr(0, paren));
            }
            v.mutex = edge.second;
            v.path = info.path;
            v.message = "acquires " + edge.second + " while holding " +
                        edge.first + "; mutexes {" + members +
                        "} form a lock-order cycle";
            analysis.violations.push_back(std::move(v));
        }
    }

    // ---- Annotation coverage. ----
    for (const auto &[key, decl] : mutexes) {
        if (!decl.inLibraryHeader || decl.local)
            continue;
        const std::string group = groupOf(decl.file);
        const auto git = guarded.find(group);
        bool covered = false;
        if (git != guarded.end()) {
            for (const auto &[field, mux] : git->second)
                if (mux == key)
                    covered = true;
        }
        if (covered)
            continue;
        Violation v;
        v.kind = "unannotated-mutex";
        v.file = decl.file;
        v.line = decl.line;
        v.mutex = key;
        v.message = "mutex member `" + decl.name +
                    "` has no ERC_GUARDED_BY(" + decl.name +
                    ") field in its file group; tie the data it "
                    "serializes to it (common/thread_annotations.h)";
        analysis.violations.push_back(std::move(v));
    }

    static const std::regex kCapability(
        R"(\bERC_(REQUIRES|ACQUIRE|RELEASE|NO_THREAD_SAFETY_ANALYSIS)\b)");
    static const std::regex kIdent(R"([A-Za-z_][A-Za-z0-9_]*)");
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const Node &node = nodes[ni];
        if (node.exempt)
            continue;
        const auto git = guarded.find(node.group);
        if (git == guarded.end())
            continue;
        // Constructors/destructors: single-threaded by convention.
        const auto cls = classNames.find(node.group);
        if (cls != classNames.end() &&
            cls->second.count(node.def.name) != 0)
            continue;
        const analyze::SourceFile &pf = tree.files[node.fileIndex];
        // Signature region: annotations between declarator and body.
        std::string sig;
        for (int li = node.def.line;
             li <= node.def.bodyBeginLine &&
             li <= static_cast<int>(pf.codeLines.size());
             ++li)
            sig += pf.codeLines[static_cast<std::size_t>(li - 1)] +
                   "\n";
        const bool annotated = std::regex_search(sig, kCapability);
        if (annotated)
            continue;
        std::set<std::string> acquired;
        for (const Acquisition &acq : acquisitions[ni])
            acquired.insert(acq.key);
        for (int li = node.def.bodyBeginLine;
             li <= node.def.bodyEndLine &&
             li <= static_cast<int>(pf.codeLines.size());
             ++li) {
            if (node.allowLines.count(li) != 0)
                continue;
            const std::string &line =
                pf.codeLines[static_cast<std::size_t>(li - 1)];
            bool flagged = false;
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kIdent);
                 it != std::sregex_iterator() && !flagged; ++it) {
                const std::string ident = (*it)[0].str();
                const auto field = git->second.find(ident);
                if (field == git->second.end())
                    continue;
                if (acquired.count(field->second) != 0)
                    continue;
                Violation v;
                v.kind = "unguarded-access";
                v.file = pf.path;
                v.line = li;
                v.function = node.def.display;
                v.mutex = field->second;
                v.message = "touches `" + ident + "` (guarded by " +
                            field->second +
                            ") without acquiring the mutex or carrying "
                            "ERC_REQUIRES/ERC_ACQUIRE on the "
                            "definition";
                analysis.violations.push_back(std::move(v));
                flagged = true; // One report per line is enough.
            }
            if (flagged)
                break; // One report per function is enough.
        }
    }

    std::sort(analysis.violations.begin(), analysis.violations.end(),
              [](const Violation &a, const Violation &b) {
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.mutex < b.mutex;
              });
    std::sort(analysis.edges.begin(), analysis.edges.end(),
              [](const LockEdge &a, const LockEdge &b) {
                  if (a.from != b.from)
                      return a.from < b.from;
                  return a.to < b.to;
              });
    return analysis;
}

std::string
renderText(const Analysis &analysis)
{
    std::ostringstream oss;
    for (const Violation &v : analysis.violations) {
        oss << v.file << ":" << v.line << ": [" << v.kind << "] "
            << v.message << "\n";
        if (!v.path.empty()) {
            oss << "    acquisition path: ";
            for (std::size_t i = 0; i < v.path.size(); ++i)
                oss << (i == 0 ? "" : " -> ") << v.path[i];
            oss << "\n";
        }
    }
    oss << "erec_conclint: " << analysis.fileCount << " files, "
        << analysis.functionCount << " functions, "
        << analysis.mutexCount << " mutexes, " << analysis.lockSiteCount
        << " lock sites, " << analysis.edges.size() << " edges, "
        << analysis.violations.size() << " violation"
        << (analysis.violations.size() == 1 ? "" : "s") << ": "
        << (analysis.pass() ? "PASS" : "FAIL") << "\n";
    return oss.str();
}

std::string
renderJson(const Analysis &analysis)
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"schema\": \"erec_conclint/v1\",\n";
    oss << "  \"files\": " << analysis.fileCount << ",\n";
    oss << "  \"functions\": " << analysis.functionCount << ",\n";
    oss << "  \"mutexes\": " << analysis.mutexCount << ",\n";
    oss << "  \"lock_sites\": " << analysis.lockSiteCount << ",\n";
    oss << "  \"pass\": " << (analysis.pass() ? "true" : "false")
        << ",\n";
    oss << "  \"edges\": [";
    for (std::size_t i = 0; i < analysis.edges.size(); ++i) {
        const LockEdge &e = analysis.edges[i];
        oss << (i == 0 ? "\n" : ",\n");
        oss << "    {\"from\": \"" << jsonEscape(e.from)
            << "\", \"to\": \"" << jsonEscape(e.to) << "\", \"path\": [";
        for (std::size_t j = 0; j < e.path.size(); ++j)
            oss << (j == 0 ? "" : ", ") << "\"" << jsonEscape(e.path[j])
                << "\"";
        oss << "]}";
    }
    oss << (analysis.edges.empty() ? "],\n" : "\n  ],\n");
    oss << "  \"violations\": [";
    for (std::size_t i = 0; i < analysis.violations.size(); ++i) {
        const Violation &v = analysis.violations[i];
        oss << (i == 0 ? "\n" : ",\n");
        oss << "    {\n";
        oss << "      \"kind\": \"" << jsonEscape(v.kind) << "\",\n";
        oss << "      \"file\": \"" << jsonEscape(v.file) << "\",\n";
        oss << "      \"line\": " << v.line << ",\n";
        oss << "      \"function\": \"" << jsonEscape(v.function)
            << "\",\n";
        oss << "      \"mutex\": \"" << jsonEscape(v.mutex) << "\",\n";
        oss << "      \"path\": [";
        for (std::size_t j = 0; j < v.path.size(); ++j)
            oss << (j == 0 ? "" : ", ") << "\"" << jsonEscape(v.path[j])
                << "\"";
        oss << "],\n";
        oss << "      \"message\": \"" << jsonEscape(v.message)
            << "\"\n";
        oss << "    }";
    }
    oss << (analysis.violations.empty() ? "]\n" : "\n  ]\n");
    oss << "}\n";
    return oss.str();
}

} // namespace erec::conclint
