/**
 * @file
 * erec_report: turn a `--metrics-out` dump into a human-readable run
 * report.
 *
 *   erec_report DIR [--stem STEM] [--fail-on-alert NAME[,NAME...]]
 *
 * For every `<stem>.prom` in DIR (or just `--stem`), prints a run
 * summary from the Prometheus export (simulator or native serving
 * metrics, whichever the run wrote; see run_summary.h), a per-stage latency attribution
 * table and a critical-path breakdown from `<stem>_traces.jsonl`
 * (when tracing was on), and the SLO verdict plus alert timeline from
 * `<stem>_alerts.jsonl`.
 *
 * `--fail-on-alert` names alert rules that must not have fired in any
 * reported run; the exit status is 1 when one did (or when a telemetry
 * file is malformed), which is how CI gates the fig19 smoke run on
 * "steady traffic loses no queries".
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "elasticrec/obs/export.h"
#include "elasticrec/obs/report.h"
#include "tools/promcheck/prom_parser.h"
#include "tools/report/run_summary.h"

namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Report one run stem; returns false on malformed telemetry. */
bool
reportStem(const fs::path &dir, const std::string &stem,
           std::vector<erec::obs::AlertEvent> *all_events)
{
    std::cout << "\n=== run " << stem << " ===\n";
    const auto prom =
        erec::tools::parsePrometheusText(readFile(dir / (stem + ".prom")));
    if (!prom.ok) {
        for (const auto &e : prom.errors)
            std::cerr << stem << ".prom: " << e << "\n";
        return false;
    }

    erec::tools::writeRunSummary(std::cout, prom);

    const fs::path traces_path = dir / (stem + "_traces.jsonl");
    if (fs::exists(traces_path)) {
        try {
            const auto trees = erec::obs::buildSpanTrees(
                erec::obs::readTraceJsonLines(readFile(traces_path)));
            erec::obs::writeStageTable(
                std::cout, erec::obs::attributeStages(trees));
            std::cout << "\n";
            erec::obs::writeCriticalPathTable(
                std::cout, erec::obs::analyzeCriticalPaths(trees));
        } catch (const std::exception &e) {
            std::cerr << traces_path.filename().string() << ": "
                      << e.what() << "\n";
            return false;
        }
    } else {
        std::cout << "Per-stage latency attribution: no trace file "
                     "(tracing was off)\n";
    }
    std::cout << "\n";

    const fs::path alerts_path = dir / (stem + "_alerts.jsonl");
    std::vector<erec::obs::AlertEvent> events;
    if (fs::exists(alerts_path)) {
        try {
            events = erec::obs::readAlertJsonLines(readFile(alerts_path));
        } catch (const std::exception &e) {
            std::cerr << alerts_path.filename().string() << ": "
                      << e.what() << "\n";
            return false;
        }
    }
    erec::obs::writeSloVerdicts(std::cout,
                                erec::obs::summarizeAlerts(events));
    erec::obs::writeAlertTimeline(std::cout, events);
    all_events->insert(all_events->end(), events.begin(), events.end());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir_arg;
    std::string stem_filter;
    std::vector<std::string> fail_on;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--stem" && i + 1 < argc) {
            stem_filter = argv[++i];
        } else if (arg == "--fail-on-alert" && i + 1 < argc) {
            std::istringstream names(argv[++i]);
            std::string name;
            while (std::getline(names, name, ','))
                if (!name.empty())
                    fail_on.push_back(name);
        } else if (dir_arg.empty() && !arg.empty() && arg[0] != '-') {
            dir_arg = arg;
        } else {
            std::cerr << "unknown argument '" << arg << "'\n";
            return 2;
        }
    }
    if (dir_arg.empty()) {
        std::cerr
            << "usage: erec_report DIR [--stem STEM] "
               "[--fail-on-alert NAME[,NAME...]]\n"
            << "  renders the telemetry dumped by --metrics-out DIR\n";
        return 2;
    }
    const fs::path dir(dir_arg);
    if (!fs::is_directory(dir)) {
        std::cerr << dir_arg << ": not a directory\n";
        return 2;
    }

    std::vector<std::string> stems;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".prom")
            stems.push_back(entry.path().stem().string());
    }
    std::sort(stems.begin(), stems.end());
    if (!stem_filter.empty()) {
        if (std::find(stems.begin(), stems.end(), stem_filter) ==
            stems.end()) {
            std::cerr << "no " << stem_filter << ".prom in " << dir_arg
                      << "\n";
            return 2;
        }
        stems = {stem_filter};
    }
    if (stems.empty()) {
        std::cerr << dir_arg << ": no .prom files\n";
        return 2;
    }

    bool ok = true;
    std::vector<erec::obs::AlertEvent> all_events;
    for (const auto &stem : stems)
        ok = reportStem(dir, stem, &all_events) && ok;

    for (const auto &name : fail_on) {
        std::uint64_t fired = 0;
        for (const auto &e : all_events)
            if (e.firing && e.alert == name)
                ++fired;
        if (fired > 0) {
            std::cerr << "\nFAIL: alert '" << name << "' fired " << fired
                      << " time" << (fired == 1 ? "" : "s")
                      << " (--fail-on-alert)\n";
            ok = false;
        } else {
            std::cout << "\ngate: alert '" << name << "' never fired\n";
        }
    }
    return ok ? 0 : 1;
}
