#include "tools/analyze/front_end.h"

#include <algorithm>
#include <cctype>
#include <limits>

namespace erec::analyze {

std::vector<std::string>
splitLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < content.size()) {
        std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos)
            nl = content.size();
        lines.push_back(content.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

const std::set<std::string> &
keywords()
{
    static const std::set<std::string> kKeywords{
        "if",       "for",     "while",   "switch",  "catch",
        "return",   "sizeof",  "alignof", "alignas", "decltype",
        "new",      "delete",  "throw",   "co_await", "co_return",
        "co_yield", "static_assert", "noexcept", "typeid", "assert",
    };
    return kKeywords;
}

bool
isRuntimeFile(const std::string &path)
{
    return path.find("src/elasticrec/runtime/") != std::string::npos ||
           path.rfind("elasticrec/runtime/", 0) == 0 ||
           path.rfind("runtime/", 0) == 0;
}

namespace {

/** True when the `'` at `quote` sits inside a pp-number (a token that
 *  starts with a digit, e.g. `62'423`): a digit separator, not a char
 *  literal. Encoding prefixes (`u8'a'`, `L'x'`) start with a letter. */
bool
isDigitSeparator(const std::string &content, std::size_t quote)
{
    std::size_t begin = quote;
    while (begin > 0 && (isIdentChar(content[begin - 1]) ||
                         content[begin - 1] == '.' ||
                         content[begin - 1] == '\''))
        --begin;
    return begin < quote &&
           std::isdigit(static_cast<unsigned char>(content[begin]));
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &content)
{
    std::string out;
    out.reserve(content.size());
    enum class State { Code, LineComment, BlockComment, String, Char };
    State state = State::Code;

    auto emit = [&out](char c) {
        out.push_back(c == '\n' || c == '\t' ? c : ' ');
    };

    std::size_t i = 0;
    const std::size_t n = content.size();
    while (i < n) {
        const char c = content[i];
        const char next = i + 1 < n ? content[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                emit(c);
                emit(next);
                i += 2;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                emit(c);
                emit(next);
                i += 2;
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || !isIdentChar(content[i - 1]))) {
                // Raw string literal: R"delim( ... )delim"
                std::size_t paren = content.find('(', i + 2);
                if (paren == std::string::npos) {
                    emit(c);
                    ++i;
                    break;
                }
                const std::string delim =
                    content.substr(i + 2, paren - (i + 2));
                const std::string closer = ")" + delim + "\"";
                std::size_t close = content.find(closer, paren + 1);
                const std::size_t end = close == std::string::npos
                                            ? n
                                            : close + closer.size();
                for (; i < end; ++i)
                    emit(content[i]);
            } else if (c == '"') {
                state = State::String;
                emit(c);
                ++i;
            } else if (c == '\'' && !isDigitSeparator(content, i)) {
                state = State::Char;
                emit(c);
                ++i;
            } else {
                out.push_back(c);
                ++i;
            }
            break;
          case State::LineComment:
            if (c == '\n')
                state = State::Code;
            emit(c);
            ++i;
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                emit(c);
                emit(next);
                i += 2;
            } else {
                emit(c);
                ++i;
            }
            break;
          case State::String:
          case State::Char: {
            const char quote = state == State::String ? '"' : '\'';
            if (c == '\\' && i + 1 < n) {
                emit(c);
                emit(next);
                i += 2;
            } else {
                if (c == quote)
                    state = State::Code;
                emit(c);
                ++i;
            }
            break;
          }
        }
    }
    return out;
}

namespace {

/**
 * Blank preprocessor directives (including `\` continuations) in
 * already-stripped text, preserving newlines, so `#define ERC_HOT_PATH`
 * in common/hotpath.h never registers as an annotation and macro
 * bodies never contribute calls.
 */
std::string
blankPreprocessorLines(const std::string &stripped)
{
    std::string out = stripped;
    std::size_t i = 0;
    const std::size_t n = out.size();
    while (i < n) {
        const std::size_t line_start = i;
        std::size_t line_end = out.find('\n', i);
        if (line_end == std::string::npos)
            line_end = n;
        std::size_t first = line_start;
        while (first < line_end &&
               std::isspace(static_cast<unsigned char>(out[first])))
            ++first;
        bool directive = first < line_end && out[first] == '#';
        while (directive) {
            // Blank this line; if it ends in `\`, the next line is
            // part of the directive too.
            std::size_t last = line_end;
            while (last > line_start &&
                   std::isspace(static_cast<unsigned char>(out[last - 1])))
                --last;
            const bool continued = last > line_start && out[last - 1] == '\\';
            for (std::size_t j = line_start; j < line_end; ++j)
                out[j] = ' ';
            if (!continued || line_end >= n)
                break;
            i = line_end + 1;
            const std::size_t next_start = i;
            line_end = out.find('\n', i);
            if (line_end == std::string::npos)
                line_end = n;
            // The continuation line is blanked unconditionally.
            std::size_t cont_last = line_end;
            while (cont_last > next_start &&
                   std::isspace(
                       static_cast<unsigned char>(out[cont_last - 1])))
                --cont_last;
            const bool cont_continued =
                cont_last > next_start && out[cont_last - 1] == '\\';
            for (std::size_t j = next_start; j < line_end; ++j)
                out[j] = ' ';
            if (!cont_continued)
                break;
        }
        i = line_end == n ? n : line_end + 1;
    }
    return out;
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/** 1-based line number of offset `pos` in `text`. */
int
lineOf(const std::string &text, std::size_t pos)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(), text.begin() +
                       static_cast<std::ptrdiff_t>(std::min(pos, text.size())),
                       '\n'));
}

/** Skip a balanced `open`...`close` group starting at `i` (which must
 *  point at `open`). Returns the index one past the closer, or npos. */
std::size_t
skipBalanced(const std::string &text, std::size_t i, char open, char close)
{
    int depth = 0;
    const std::size_t n = text.size();
    for (; i < n; ++i) {
        if (text[i] == open)
            ++depth;
        else if (text[i] == close && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

std::size_t
skipWs(const std::string &text, std::size_t i)
{
    const std::size_t n = text.size();
    while (i < n && std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    return i;
}

/**
 * Trailing-token walk after a candidate's parameter list. Returns the
 * index of the body's `{` when the candidate is a definition, npos
 * otherwise (declaration, variable, macro invocation, ...).
 */
std::size_t
findBodyBrace(const std::string &text, std::size_t pos)
{
    const std::size_t n = text.size();
    for (;;) {
        pos = skipWs(text, pos);
        if (pos >= n)
            return std::string::npos;
        const char c = text[pos];
        if (c == '{')
            return pos;
        if (c == ';')
            return std::string::npos;
        if (isIdentStart(c)) {
            // const / noexcept / override / final / mutable / an
            // attribute-like macro — any ident, optionally followed by
            // a balanced `(...)` group (e.g. noexcept(...), ERC_...).
            std::size_t j = pos;
            while (j < n && isIdentChar(text[j]))
                ++j;
            pos = skipWs(text, j);
            if (pos < n && text[pos] == '(') {
                pos = skipBalanced(text, pos, '(', ')');
                if (pos == std::string::npos)
                    return std::string::npos;
            }
            continue;
        }
        if (c == '-' && pos + 1 < n && text[pos + 1] == '>') {
            // Trailing return type: scan to `{` or `;` at paren depth 0.
            int depth = 0;
            for (std::size_t j = pos + 2; j < n; ++j) {
                const char d = text[j];
                if (d == '(')
                    ++depth;
                else if (d == ')')
                    --depth;
                else if (depth == 0 && d == '{')
                    return j;
                else if (depth == 0 && d == ';')
                    return std::string::npos;
            }
            return std::string::npos;
        }
        if (c == ':' && (pos + 1 >= n || text[pos + 1] != ':')) {
            // Constructor initializer list:
            //   : member(expr), Base{...}, other(x) {
            std::size_t j = pos + 1;
            for (;;) {
                j = skipWs(text, j);
                if (j >= n || !isIdentStart(text[j]))
                    return std::string::npos;
                while (j < n && isIdentChar(text[j]))
                    ++j;
                // Qualified base (Ns::Base) or template args.
                while (j + 1 < n && text[j] == ':' && text[j + 1] == ':') {
                    j = skipWs(text, j + 2);
                    while (j < n && isIdentChar(text[j]))
                        ++j;
                }
                j = skipWs(text, j);
                if (j < n && text[j] == '<') {
                    j = skipBalanced(text, j, '<', '>');
                    if (j == std::string::npos)
                        return std::string::npos;
                    j = skipWs(text, j);
                }
                if (j >= n || (text[j] != '(' && text[j] != '{'))
                    return std::string::npos;
                j = text[j] == '('
                        ? skipBalanced(text, j, '(', ')')
                        : skipBalanced(text, j, '{', '}');
                if (j == std::string::npos)
                    return std::string::npos;
                j = skipWs(text, j);
                if (j < n && text[j] == ',') {
                    ++j;
                    continue;
                }
                break;
            }
            j = skipWs(text, j);
            if (j < n && text[j] == '{')
                return j;
            return std::string::npos;
        }
        // `= default`, `= delete`, `= 0`, an initializer, or anything
        // else: not a function definition.
        return std::string::npos;
    }
}

/** Qualified spelling of the identifier ending at `identEnd`
 *  (exclusive): walks back over `Ns::Class::` prefixes. */
std::string
qualifiedName(const std::string &text, std::size_t identBegin,
              std::size_t identEnd)
{
    std::size_t k = identBegin;
    for (;;) {
        std::size_t j = k;
        while (j > 0 && std::isspace(static_cast<unsigned char>(text[j - 1])))
            --j;
        if (j < 2 || text[j - 1] != ':' || text[j - 2] != ':')
            break;
        j -= 2;
        while (j > 0 && std::isspace(static_cast<unsigned char>(text[j - 1])))
            --j;
        // Skip template args on the qualifier (Tpl<T>::f).
        if (j > 0 && text[j - 1] == '>') {
            int depth = 0;
            while (j > 0) {
                --j;
                if (text[j] == '>')
                    ++depth;
                else if (text[j] == '<' && --depth == 0)
                    break;
            }
            while (j > 0 &&
                   std::isspace(static_cast<unsigned char>(text[j - 1])))
                --j;
        }
        std::size_t m = j;
        while (m > 0 && isIdentChar(text[m - 1]))
            --m;
        if (m == j)
            break;
        k = m;
    }
    std::string out = text.substr(k, identEnd - k);
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](char c) {
                                 return std::isspace(
                                     static_cast<unsigned char>(c));
                             }),
              out.end());
    return out;
}

/** Function definitions in stripped + preprocessor-blanked `code`. */
std::vector<FunctionDef>
definitionsIn(const std::string &path, const std::string &code)
{
    std::vector<FunctionDef> defs;
    const std::size_t n = code.size();
    std::size_t i = 0;
    while (i < n) {
        if (!isIdentStart(code[i])) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < n && isIdentChar(code[j]))
            ++j;
        std::string word = code.substr(i, j - i);
        std::size_t identBegin = i;
        std::size_t identEnd = j;
        std::size_t probe = skipWs(code, j);

        if (word == "operator") {
            // Consume the operator symbol (or conversion type) up to
            // the parameter list so the body is skipped as a unit.
            std::size_t k = probe;
            if (k + 1 < n && code[k] == '(' && code[k + 1] == ')')
                k = skipWs(code, k + 2); // operator()
            else
                while (k < n && code[k] != '(' && code[k] != ';' &&
                       code[k] != '{')
                    ++k;
            if (k >= n || code[k] != '(') {
                i = j;
                continue;
            }
            identEnd = j;
            probe = k;
        } else if (probe >= n || code[probe] != '(' ||
                   keywords().count(word) != 0) {
            i = j;
            continue;
        }

        const std::size_t after_params =
            skipBalanced(code, probe, '(', ')');
        if (after_params == std::string::npos) {
            i = j;
            continue;
        }
        const std::size_t brace = findBodyBrace(code, after_params);
        if (brace == std::string::npos) {
            i = j;
            continue;
        }
        const std::size_t after_body = skipBalanced(code, brace, '{', '}');
        if (after_body == std::string::npos) {
            i = j;
            continue;
        }
        FunctionDef def;
        def.name = word;
        def.display = word == "operator"
                          ? "operator"
                          : qualifiedName(code, identBegin, identEnd);
        def.file = path;
        def.line = lineOf(code, identBegin);
        def.bodyBeginLine = lineOf(code, brace);
        def.bodyEndLine = lineOf(code, after_body - 1);
        defs.push_back(std::move(def));
        i = after_body;
    }
    return defs;
}

} // namespace

std::vector<FunctionDef>
extractFunctions(const std::string &path, const std::string &content)
{
    return definitionsIn(
        path, blankPreprocessorLines(stripCommentsAndStrings(content)));
}

SourceTree
parseTree(const FileSet &files)
{
    SourceTree tree;
    for (const auto &[path, content] : files) {
        SourceFile file;
        file.path = path;
        file.rawLines = splitLines(content);
        file.code =
            blankPreprocessorLines(stripCommentsAndStrings(content));
        file.codeLines = splitLines(file.code);
        file.functionsBegin = tree.functions.size();
        for (auto &def : definitionsIn(path, file.code))
            tree.functions.push_back({std::move(def), tree.files.size(), {}});
        file.functionsEnd = tree.functions.size();
        tree.files.push_back(std::move(file));
    }

    std::map<std::string, std::vector<std::size_t>> byName;
    for (std::size_t fi = 0; fi < tree.functions.size(); ++fi)
        byName[tree.functions[fi].def.name].push_back(fi);
    // Keywords never name a definition, so they never resolve here.
    static const std::regex kCall(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
    for (Function &fn : tree.functions) {
        const auto &lines = tree.files[fn.file].codeLines;
        for (int li = fn.def.bodyBeginLine;
             li <= fn.def.bodyEndLine &&
             li <= static_cast<int>(lines.size());
             ++li) {
            const std::string &line = lines[static_cast<std::size_t>(li - 1)];
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kCall);
                 it != std::sregex_iterator(); ++it) {
                const auto found = byName.find((*it)[1].str());
                if (found == byName.end())
                    continue;
                for (const std::size_t target : found->second)
                    fn.calls.push_back({li, target});
            }
        }
    }
    return tree;
}

Waivers
collectWaivers(const SourceTree &tree, const std::regex &marker)
{
    Waivers waivers;
    waivers.lines.resize(tree.functions.size());
    waivers.exempt.resize(tree.functions.size(), false);
    for (const SourceFile &file : tree.files) {
        std::vector<int> &markers = waivers.markers.emplace_back();
        for (std::size_t li = 0; li < file.rawLines.size(); ++li)
            if (std::regex_search(file.rawLines[li], marker))
                markers.push_back(static_cast<int>(li) + 1);
        for (const int line : markers) {
            // The first body holding the marker, else the first
            // definition after it.
            for (std::size_t fi = file.functionsBegin;
                 fi < file.functionsEnd; ++fi) {
                const FunctionDef &def = tree.functions[fi].def;
                if (line >= def.bodyBeginLine && line <= def.bodyEndLine) {
                    waivers.lines[fi].insert(line);
                    waivers.lines[fi].insert(line + 1);
                    break;
                }
                if (def.bodyBeginLine > line) {
                    waivers.exempt[fi] = true;
                    break;
                }
            }
        }
    }
    return waivers;
}

std::vector<std::size_t>
componentIds(const std::vector<std::vector<std::size_t>> &adjacency)
{
    constexpr std::size_t kUnseen = std::numeric_limits<std::size_t>::max();
    const std::size_t n = adjacency.size();
    std::vector<std::size_t> index(n, kUnseen), low(n, 0), comp(n, kUnseen);
    std::vector<bool> onStack(n, false);
    std::vector<std::size_t> stack;
    std::size_t counter = 0;
    std::size_t comps = 0;
    struct Frame
    {
        std::size_t v;
        std::size_t child = 0;
    };
    for (std::size_t root = 0; root < n; ++root) {
        if (index[root] != kUnseen)
            continue;
        std::vector<Frame> frames{{root}};
        index[root] = low[root] = counter++;
        stack.push_back(root);
        onStack[root] = true;
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.child < adjacency[f.v].size()) {
                const std::size_t w = adjacency[f.v][f.child++];
                if (index[w] == kUnseen) {
                    index[w] = low[w] = counter++;
                    stack.push_back(w);
                    onStack[w] = true;
                    frames.push_back({w});
                } else if (onStack[w]) {
                    low[f.v] = std::min(low[f.v], index[w]);
                }
                continue;
            }
            if (low[f.v] == index[f.v]) {
                for (;;) {
                    const std::size_t w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    comp[w] = comps;
                    if (w == f.v)
                        break;
                }
                ++comps;
            }
            const std::size_t v = f.v;
            frames.pop_back();
            if (!frames.empty())
                low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
    }
    return comp;
}

} // namespace erec::analyze
