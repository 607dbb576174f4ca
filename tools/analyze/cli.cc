#include "tools/analyze/cli.h"

#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/analyze/arch.h"
#include "tools/analyze/conc.h"
#include "tools/analyze/front_end.h"
#include "tools/analyze/hotpath.h"
#include "tools/analyze/lint.h"

namespace fs = std::filesystem;

namespace erec::analyze {

namespace {

bool
readFile(const fs::path &path, std::string *content)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return false;
    std::ostringstream oss;
    oss << in.rdbuf();
    *content = oss.str();
    return true;
}

bool
isCxxFile(const fs::path &path)
{
    const auto ext = path.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp";
}

/** Repo-relative spelling of a scanned path ("./src/x" -> "src/x"). */
std::string
repoRelative(const fs::path &path)
{
    std::string out = path.generic_string();
    while (out.rfind("./", 0) == 0)
        out = out.substr(2);
    return out;
}

int
runLint(const FileSet &files, std::ostream &out, std::ostream &err)
{
    int violations = 0;
    for (const auto &[path, content] : files) {
        for (const auto &d : lint::lintContent(path, content)) {
            err << lint::formatDiagnostic(d) << "\n";
            ++violations;
        }
    }
    if (violations > 0) {
        err << "erec_lint: " << violations << " violation"
            << (violations == 1 ? "" : "s") << " in " << files.size()
            << " files\n";
        return 1;
    }
    out << "erec_lint: " << files.size() << " files clean\n";
    return 0;
}

/** Print a pass's report; renderText/renderJson resolve by ADL. */
template <typename Analysis>
int
report(const Analysis &analysis, const std::string &format,
       std::ostream &out, std::ostream &err)
{
    if (format == "json")
        out << renderJson(analysis);
    else
        (analysis.pass() ? out : err) << renderText(analysis);
    return analysis.pass() ? 0 : 1;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    const std::string pass = args.empty() ? "" : args[0];
    std::vector<std::string> roots;
    std::string config_path;
    std::string format = "text";
    bool usage_ok = pass == "lint" || pass == "arch" ||
                    pass == "hotpath" || pass == "conc";
    for (std::size_t i = 1; i < args.size() && usage_ok; ++i) {
        const bool has_value = i + 1 < args.size();
        if (args[i] == "--root" && has_value)
            roots.push_back(args[++i]);
        else if (args[i] == "--config" && has_value)
            config_path = args[++i];
        else if (args[i] == "--format" && has_value)
            format = args[++i];
        else
            usage_ok = false;
    }
    usage_ok = usage_ok && !roots.empty() &&
               (format == "text" || (format == "json" && pass != "lint")) &&
               (pass == "arch") == !config_path.empty();
    if (!usage_ok) {
        err << "usage: erec_analyze <lint|arch|hotpath|conc>"
               " --root <dir> [--root <dir>...]"
               " [--config <layers.conf>] [--format text|json]\n"
               "  (--config is required by arch and only valid there;"
               " lint has no json format)\n";
        return 2;
    }

    FileSet files;
    auto add = [&files, &err](const fs::path &path) {
        if (readFile(path, &files[repoRelative(path)]))
            return true;
        err << "erec_analyze: cannot read " << path << "\n";
        return false;
    };
    for (const auto &root : roots) {
        if (fs::is_regular_file(root)) {
            if (!add(root))
                return 2;
            continue;
        }
        if (!fs::is_directory(root)) {
            err << "erec_analyze: no such file or directory: " << root
                << "\n";
            return 2;
        }
        for (const auto &entry : fs::recursive_directory_iterator(root)) {
            if (entry.is_regular_file() && isCxxFile(entry.path()) &&
                !add(entry.path()))
                return 2;
        }
    }

    try {
        if (pass == "lint")
            return runLint(files, out, err);
        if (pass == "hotpath")
            return report(hotpath::analyze(files), format, out, err);
        if (pass == "conc")
            return report(conclint::analyze(files), format, out, err);
        std::string config;
        if (!readFile(config_path, &config)) {
            err << "erec_analyze: cannot read " << config_path << "\n";
            return 2;
        }
        return report(
            archlint::analyze(files, archlint::parseLayerConfig(config)),
            format, out, err);
    } catch (const std::exception &e) {
        err << "erec_analyze: " << e.what() << "\n";
        return 2;
    }
}

} // namespace erec::analyze
