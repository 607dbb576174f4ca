#include "tools/analyze/hotpath.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <queue>
#include <regex>
#include <set>
#include <sstream>

namespace erec::hotpath {

using analyze::jsonEscape;

namespace {

/** Read the identifier ending just before `end` (exclusive), walking
 *  backwards; returns "" when the preceding token is not an ident. */
std::string
identBefore(const std::string &text, std::size_t end)
{
    std::size_t j = end;
    while (j > 0 && std::isspace(static_cast<unsigned char>(text[j - 1])))
        --j;
    std::size_t k = j;
    while (k > 0 && analyze::isIdentChar(text[k - 1]))
        --k;
    if (k == j)
        return "";
    return text.substr(k, j - k);
}

/** One lexical violation rule. */
struct Rule
{
    const char *kind;
    std::regex pattern;
};

const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> kRules = [] {
        std::vector<Rule> r;
        r.push_back({"heap-alloc",
                     std::regex(R"(\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\()")});
        r.push_back({"container-growth",
                     std::regex(R"((\.|->)\s*(push_back|emplace_back|push_front|emplace_front|resize|reserve|insert|emplace)\s*\()")});
        r.push_back({"string-alloc",
                     std::regex(R"(\bto_string\s*\(|\bstd\s*::\s*string\s*[({]|\bostringstream\b|\bstringstream\b)")});
        r.push_back({"blocking-io",
                     std::regex(R"(\bstd\s*::\s*(cout|cerr|clog|cin)\b|\b(printf|fprintf|fputs|fwrite|fread|fopen)\s*\(|\bifstream\b|\bofstream\b|\bfstream\b|\bgetline\s*\()")});
        r.push_back({"throw", std::regex(R"(\bthrow\b)")});
        r.push_back({"mutex-lock",
                     std::regex(R"(\block_guard\b|\bunique_lock\b|\bscoped_lock\b|(\.|->)\s*lock\s*\()")});
        return r;
    }();
    return kRules;
}

} // namespace

Analysis
analyze(const FileSet &files)
{
    const analyze::SourceTree tree = analyze::parseTree(files);
    static const std::regex kAllow(R"(ERC_HOT_PATH_ALLOW\(\s*\")");
    const analyze::Waivers waivers = analyze::collectWaivers(tree, kAllow);
    const auto &fns = tree.functions;

    Analysis analysis;
    analysis.fileCount = files.size();
    analysis.functionCount = fns.size();

    // Hot roots: ERC_HOT_PATH annotates the next declarator — the
    // identifier directly before the following `(`.
    static const std::regex kRoot(R"(\bERC_HOT_PATH\b)");
    std::set<std::string> rootNames;
    for (const analyze::SourceFile &file : tree.files) {
        const auto &lines = file.codeLines;
        for (std::size_t li = 0; li < lines.size(); ++li) {
            std::smatch m;
            if (!std::regex_search(lines[li], m, kRoot))
                continue;
            // Scan forward (same or later lines) for the next `(`.
            std::size_t col =
                static_cast<std::size_t>(m.position(0) + m.length(0));
            for (std::size_t lj = li; lj < lines.size(); ++lj) {
                const std::string &line = lines[lj];
                const std::size_t start = lj == li ? col : 0;
                const std::size_t paren = line.find('(', start);
                if (paren == std::string::npos)
                    continue;
                const std::string name = identBefore(line, paren);
                if (!name.empty() && analyze::keywords().count(name) == 0)
                    rootNames.insert(name);
                break;
            }
        }
    }
    analysis.rootCount = rootNames.size();

    // ---- Multi-source BFS with parent pointers for call paths. ----
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> parent(fns.size(), kNone);
    std::vector<std::size_t> rootOf(fns.size(), kNone);
    std::vector<bool> visited(fns.size(), false);
    std::queue<std::size_t> frontier;
    for (std::size_t ni = 0; ni < fns.size(); ++ni) {
        if (rootNames.count(fns[ni].def.name) == 0 || waivers.exempt[ni])
            continue;
        visited[ni] = true;
        rootOf[ni] = ni;
        frontier.push(ni);
    }
    while (!frontier.empty()) {
        const std::size_t ni = frontier.front();
        frontier.pop();
        std::set<std::size_t> callees;
        for (const analyze::CallSite &call : fns[ni].calls)
            callees.insert(call.callee);
        for (const std::size_t callee : callees) {
            if (visited[callee] || waivers.exempt[callee])
                continue;
            visited[callee] = true;
            parent[callee] = ni;
            rootOf[callee] = rootOf[ni];
            frontier.push(callee);
        }
    }
    analysis.reachableCount = static_cast<std::size_t>(
        std::count(visited.begin(), visited.end(), true));

    // ---- Scan every reachable body for violations. ----
    for (std::size_t ni = 0; ni < fns.size(); ++ni) {
        if (!visited[ni])
            continue;
        const analyze::FunctionDef &def = fns[ni].def;
        const analyze::SourceFile &file = tree.files[fns[ni].file];
        const bool runtime_file = analyze::isRuntimeFile(file.path);

        std::vector<std::string> chain;
        for (std::size_t cur = ni; cur != kNone; cur = parent[cur])
            chain.push_back(fns[cur].def.display);
        std::reverse(chain.begin(), chain.end());
        const std::string root_name = fns[rootOf[ni]].def.display;

        for (int li = def.bodyBeginLine;
             li <= def.bodyEndLine &&
             li <= static_cast<int>(file.codeLines.size());
             ++li) {
            if (waivers.lines[ni].count(li) != 0)
                continue;
            const std::string &line =
                file.codeLines[static_cast<std::size_t>(li - 1)];
            for (const Rule &rule : rules()) {
                if (runtime_file &&
                    std::string(rule.kind) == "mutex-lock")
                    continue;
                if (!std::regex_search(line, rule.pattern))
                    continue;
                Violation v;
                v.kind = rule.kind;
                v.file = file.path;
                v.line = li;
                v.function = def.display;
                v.root = root_name;
                v.path = chain;
                const std::size_t raw_index =
                    static_cast<std::size_t>(li - 1);
                v.message = raw_index < file.rawLines.size()
                                ? analyze::trim(file.rawLines[raw_index])
                                : analyze::trim(line);
                analysis.violations.push_back(std::move(v));
            }
        }
    }

    std::sort(analysis.violations.begin(), analysis.violations.end(),
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
    for (const Violation &v : analysis.violations) {
        oss << v.file << ":" << v.line << ": [" << v.kind << "] "
            << v.message << "\n";
        oss << "    in " << v.function << ", reached via ";
        for (std::size_t i = 0; i < v.path.size(); ++i)
            oss << (i == 0 ? "" : " -> ") << v.path[i];
        oss << "\n";
    }
    oss << "erec_hotpath: " << analysis.fileCount << " files, "
        << analysis.functionCount << " functions, " << analysis.rootCount
        << " hot roots, " << analysis.reachableCount << " reachable, "
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
    oss << "  \"schema\": \"erec_hotpath/v1\",\n";
    oss << "  \"files\": " << analysis.fileCount << ",\n";
    oss << "  \"functions\": " << analysis.functionCount << ",\n";
    oss << "  \"roots\": " << analysis.rootCount << ",\n";
    oss << "  \"reachable\": " << analysis.reachableCount << ",\n";
    oss << "  \"pass\": " << (analysis.pass() ? "true" : "false") << ",\n";
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
        oss << "      \"root\": \"" << jsonEscape(v.root) << "\",\n";
        oss << "      \"path\": [";
        for (std::size_t j = 0; j < v.path.size(); ++j)
            oss << (j == 0 ? "" : ", ") << "\"" << jsonEscape(v.path[j])
                << "\"";
        oss << "],\n";
        oss << "      \"message\": \"" << jsonEscape(v.message) << "\"\n";
        oss << "    }";
    }
    oss << (analysis.violations.empty() ? "]\n" : "\n  ]\n");
    oss << "}\n";
    return oss.str();
}

} // namespace erec::hotpath
