#include "tools/analyze/arch.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

#include "elasticrec/common/error.h"

namespace erec::archlint {

using analyze::jsonEscape;

namespace {

/** Lexically normalize a '/'-separated path ("a/./b/../c" -> "a/c"). */
std::string
normalizePath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= path.size()) {
        std::size_t slash = path.find('/', start);
        const std::size_t end =
            slash == std::string::npos ? path.size() : slash;
        const std::string part = path.substr(start, end - start);
        if (part == "..") {
            if (!parts.empty() && parts.back() != "..")
                parts.pop_back();
            else
                parts.push_back(part);
        } else if (!part.empty() && part != ".") {
            parts.push_back(part);
        }
        if (slash == std::string::npos)
            break;
        start = slash + 1;
    }
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += '/';
        out += parts[i];
    }
    return out;
}

std::string
dirName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? "" : path.substr(0, slash);
}

bool
validModuleName(const std::string &name)
{
    if (name.empty())
        return false;
    return std::all_of(name.begin(), name.end(), [](unsigned char c) {
        return std::isalnum(c) || c == '_' || c == '-';
    });
}

/**
 * Resolve a quoted include against the scanned tree: relative to the
 * including file's directory first (bench_util.h style), then under
 * src/ (the "elasticrec/<module>/<header>.h" convention), then from
 * the repo root ("tools/analyze/arch.h" style). Empty when the
 * include is not a scanned first-party file.
 */
std::string
resolveInclude(const FileSet &files, const std::string &includer,
               const std::string &include)
{
    const std::string dir = dirName(includer);
    const std::string candidates[] = {
        normalizePath(dir.empty() ? include : dir + "/" + include),
        normalizePath("src/" + include),
        normalizePath(include),
    };
    for (const auto &candidate : candidates) {
        if (files.count(candidate))
            return candidate;
    }
    return "";
}

/** One resolved first-party include edge. */
struct Edge
{
    std::string from;
    std::string to;
    int line = 0;
    /** The include path as written (for messages). */
    std::string spelled;
};

/**
 * A concrete cycle path through `component`, as "a -> b -> a".
 * DFS restricted to the component from its lexicographically first
 * member back to itself; the component is an SCC, so one exists.
 */
std::string
cyclePath(const std::vector<std::string> &component,
          const std::map<std::string, std::vector<std::string>> &adjacency)
{
    const std::set<std::string> members(component.begin(),
                                        component.end());
    const std::string start =
        *std::min_element(component.begin(), component.end());

    std::vector<std::string> path = {start};
    std::set<std::string> visited;
    // Iterative DFS carrying the current path.
    struct Frame
    {
        std::string node;
        std::size_t nextTarget = 0;
    };
    std::vector<Frame> stack = {{start, 0}};
    while (!stack.empty()) {
        Frame &frame = stack.back();
        const auto it = adjacency.find(frame.node);
        const auto &targets =
            it == adjacency.end() ? std::vector<std::string>{} : it->second;
        bool advanced = false;
        while (frame.nextTarget < targets.size()) {
            const std::string &next = targets[frame.nextTarget++];
            if (next == start) {
                std::string out;
                for (const auto &node : path)
                    out += node + " -> ";
                return out + start;
            }
            if (members.count(next) && !visited.count(next)) {
                visited.insert(next);
                path.push_back(next);
                stack.push_back({next, 0});
                advanced = true;
                break;
            }
        }
        if (!advanced) {
            stack.pop_back();
            path.pop_back();
        }
    }
    // Unreachable for a genuine SCC; keep the report usable anyway.
    return start + " -> ... -> " + start;
}

} // namespace

std::vector<IncludeDirective>
extractIncludes(const std::string &content)
{
    // The directive is recognised on the *stripped* text, so a
    // commented-out `#include` or one inside a string literal never
    // counts; the path itself is a string/bracket token the stripper
    // blanks, so it is read back from the raw line.
    static const std::regex kDirective(R"(^\s*#\s*include\b)");
    static const std::regex kPath(
        R"(^\s*#\s*include\s*([<"])([^">]+)[">])");
    std::vector<IncludeDirective> directives;
    const auto raw_lines = analyze::splitLines(content);
    const auto stripped_lines =
        analyze::splitLines(analyze::stripCommentsAndStrings(content));
    for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        if (!std::regex_search(stripped_lines[i], kDirective))
            continue;
        std::smatch match;
        if (!std::regex_search(raw_lines[i], match, kPath))
            continue;
        directives.push_back({static_cast<int>(i + 1), match[2].str(),
                              match[1].str() == "<"});
    }
    return directives;
}

bool
LayerConfig::declares(const std::string &module) const
{
    return direct.count(module) > 0;
}

bool
LayerConfig::allows(const std::string &from, const std::string &to) const
{
    if (from == to || wildcard.count(from))
        return true;
    const auto it = closure.find(from);
    return it != closure.end() && it->second.count(to) > 0;
}

LayerConfig
parseLayerConfig(const std::string &text)
{
    LayerConfig config;
    const auto lines = analyze::splitLines(text);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string line = lines[i];
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const bool blank =
            std::all_of(line.begin(), line.end(), [](unsigned char c) {
                return std::isspace(c);
            });
        if (blank)
            continue;
        const std::string where =
            "layers.conf line " + std::to_string(i + 1);

        const std::size_t colon = line.find(':');
        ERC_CHECK(colon != std::string::npos,
                  where << ": expected `module: dep dep ...`, got `"
                        << lines[i] << "`");
        std::istringstream name_in(line.substr(0, colon));
        std::string module, excess;
        name_in >> module;
        ERC_CHECK(validModuleName(module) && !(name_in >> excess),
                  where << ": invalid module name before `:`");
        ERC_CHECK(!config.declares(module),
                  where << ": duplicate entry for module `" << module
                        << "`");

        config.order.push_back(module);
        auto &deps = config.direct[module];
        std::istringstream deps_in(line.substr(colon + 1));
        std::string dep;
        while (deps_in >> dep) {
            if (dep == "*") {
                config.wildcard.insert(module);
                continue;
            }
            ERC_CHECK(validModuleName(dep),
                      where << ": invalid dependency name `" << dep
                            << "`");
            ERC_CHECK(dep != module,
                      where << ": module `" << module
                            << "` lists itself as a dependency");
            deps.push_back(dep);
        }
    }

    for (const auto &[module, deps] : config.direct) {
        for (const auto &dep : deps) {
            ERC_CHECK(config.declares(dep),
                      "layers.conf: module `"
                          << module << "` depends on `" << dep
                          << "`, which has no entry of its own");
        }
    }

    // Transitive closure by DFS; the declarations themselves must form
    // a DAG or "allowed" would mean everything for every cycle member.
    for (const auto &module : config.order) {
        std::set<std::string> seen;
        std::vector<std::string> stack = config.direct.at(module);
        while (!stack.empty()) {
            const std::string dep = stack.back();
            stack.pop_back();
            ERC_CHECK(dep != module,
                      "layers.conf: dependency cycle through module `"
                          << module << "`");
            if (!seen.insert(dep).second)
                continue;
            for (const auto &next : config.direct.at(dep))
                stack.push_back(next);
        }
        config.closure[module] = std::move(seen);
    }
    return config;
}

std::string
moduleOf(const std::string &path)
{
    const std::string clean = normalizePath(path);
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start < clean.size()) {
        std::size_t slash = clean.find('/', start);
        const std::size_t end =
            slash == std::string::npos ? clean.size() : slash;
        parts.push_back(clean.substr(start, end - start));
        if (slash == std::string::npos)
            break;
        start = slash + 1;
    }
    if (parts.size() >= 3 && parts[0] == "src" && parts[1] == "elasticrec")
        return parts[2];
    return parts.empty() ? "" : parts[0];
}

Analysis
analyze(const FileSet &files, const LayerConfig &config)
{
    Analysis analysis;
    analysis.fileCount = files.size();

    std::vector<Edge> edges;
    std::map<std::string, std::vector<std::string>> adjacency;
    for (const auto &[path, content] : files) {
        auto &targets = adjacency[path];
        std::set<std::string> seen;
        for (const auto &directive : extractIncludes(content)) {
            if (directive.angled)
                continue;
            const std::string target =
                resolveInclude(files, path, directive.path);
            if (target.empty() || !seen.insert(target).second)
                continue;
            edges.push_back(
                {path, target, directive.line, directive.path});
            targets.push_back(target);
        }
    }
    analysis.edgeCount = edges.size();

    // undeclared-module: one violation per module missing from the
    // config, so adding a module forces a layering decision.
    std::set<std::string> undeclared;
    for (const auto &[path, content] : files) {
        (void)content;
        const std::string module = moduleOf(path);
        if (!module.empty() && !config.declares(module))
            undeclared.insert(module);
    }
    for (const auto &module : undeclared) {
        analysis.violations.push_back(
            {"undeclared-module", "", 0, module, "",
             "module `" + module +
                 "` has no layers.conf entry; declare its allowed "
                 "dependencies (or `*`) before adding code to it"});
    }

    // layer-edge: cross-module includes outside the transitive
    // closure of the including module's declared dependencies.
    for (const auto &edge : edges) {
        const std::string from = moduleOf(edge.from);
        const std::string to = moduleOf(edge.to);
        if (from == to || !config.declares(from) || !config.declares(to))
            continue;
        if (config.allows(from, to))
            continue;
        analysis.violations.push_back(
            {"layer-edge", edge.from, edge.line, from, to,
             "`" + from + "` may not include `" + to + "` (" +
                 edge.spelled + "); allowed for `" + from + "`: " +
                 [&config, &from]() {
                     std::string allowed;
                     const auto &closure = config.closure.at(from);
                     for (const auto &dep : closure)
                         allowed += (allowed.empty() ? "" : ", ") + dep;
                     return allowed.empty() ? std::string("<nothing>")
                                            : allowed;
                 }() +
                 " — add the edge to layers.conf only if the DAG "
                 "stays acyclic, else forward-declare or move code "
                 "down a layer"});
    }

    // include-cycle: SCCs of the file-level graph with >1 member, plus
    // direct self-includes.
    std::map<std::string, std::size_t> node_of;
    for (const auto &[path, targets] : adjacency)
        node_of.emplace(path, node_of.size());
    std::vector<std::vector<std::size_t>> graph;
    for (const auto &[path, targets] : adjacency) {
        auto &out = graph.emplace_back();
        for (const auto &target : targets)
            out.push_back(node_of.at(target));
    }
    const auto ids = analyze::componentIds(graph);
    std::map<std::size_t, std::vector<std::string>> components;
    for (const auto &[path, node] : node_of)
        components[ids[node]].push_back(path);
    for (const auto &[id, component] : components) {
        bool cyclic = component.size() > 1;
        if (!cyclic) {
            const auto &targets = adjacency.at(component.front());
            cyclic = std::find(targets.begin(), targets.end(),
                               component.front()) != targets.end();
        }
        if (!cyclic)
            continue;
        const std::string path = cyclePath(component, adjacency);
        const std::string anchor =
            *std::min_element(component.begin(), component.end());
        analysis.violations.push_back(
            {"include-cycle", anchor, 0, moduleOf(anchor), "",
             "include cycle: " + path +
                 " — break it with a forward declaration or by "
                 "splitting the shared types into a lower header"});
    }

    // Deterministic report order: by file, then line, then kind.
    std::stable_sort(analysis.violations.begin(),
                     analysis.violations.end(),
                     [](const Violation &a, const Violation &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.kind < b.kind;
                     });
    return analysis;
}

std::string
renderText(const Analysis &analysis)
{
    std::ostringstream oss;
    for (const auto &violation : analysis.violations) {
        if (violation.file.empty())
            oss << "layers.conf";
        else
            oss << violation.file << ":" << violation.line;
        oss << ": [" << violation.kind << "] " << violation.message
            << "\n";
    }
    oss << "erec_archlint: " << analysis.fileCount << " files, "
        << analysis.edgeCount << " include edges, "
        << analysis.violations.size() << " violation"
        << (analysis.violations.size() == 1 ? "" : "s") << " — "
        << (analysis.pass() ? "PASS" : "FAIL") << "\n";
    return oss.str();
}

std::string
renderJson(const Analysis &analysis)
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"schema\": \"erec_archlint/v1\",\n";
    oss << "  \"files\": " << analysis.fileCount << ",\n";
    oss << "  \"edges\": " << analysis.edgeCount << ",\n";
    oss << "  \"pass\": " << (analysis.pass() ? "true" : "false")
        << ",\n";
    oss << "  \"violations\": [";
    for (std::size_t i = 0; i < analysis.violations.size(); ++i) {
        const Violation &v = analysis.violations[i];
        oss << (i == 0 ? "\n" : ",\n");
        oss << "    {\n";
        oss << "      \"kind\": \"" << jsonEscape(v.kind) << "\",\n";
        oss << "      \"file\": \"" << jsonEscape(v.file) << "\",\n";
        oss << "      \"line\": " << v.line << ",\n";
        oss << "      \"from\": \"" << jsonEscape(v.fromModule)
            << "\",\n";
        oss << "      \"to\": \"" << jsonEscape(v.toModule) << "\",\n";
        oss << "      \"message\": \"" << jsonEscape(v.message)
            << "\"\n";
        oss << "    }";
    }
    oss << (analysis.violations.empty() ? "]\n" : "\n  ]\n");
    oss << "}\n";
    return oss.str();
}

} // namespace erec::archlint
