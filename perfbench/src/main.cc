/**
 * @file
 * The repository benchmark. One run is one workload at one seed:
 *
 *     erec_perfbench --workload serve_hot|serve_cold --seed N
 *                    --seconds S --trace 0|1
 *                    [--git-sha SHA] [--out-dir DIR]
 *
 * Every workload runs the same pipeline: set-up (repeated, median
 * reported), an open-loop rate ladder on the native ElasticRec
 * stack, then the diurnal cluster simulation of RM1. The untraced run
 * reports the end-to-end metrics; the traced run reports per-layer
 * metrics and writes a span dump to DIR. The last line of stdout is the
 * result object; the exit code is 1 when any output was wrong. See
 * NOTES.md for the metrics and how to read them.
 */

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "elasticrec/common/logging.h"
#include "serve.h"
#include "sim.h"
#include "stats.h"

namespace perfbench {
namespace {

/**
 * Set-ups timed per run at least; setup_s is their median over the
 * quiet ones (see quietMedian).
 */
constexpr std::size_t kMinSetups = 3;

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::stoull(val);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(val);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--git-sha") {
            o.gitSha = val;
        } else if (arg == "--out-dir") {
            o.outDir = val;
        } else {
            throw std::invalid_argument("unknown flag " + arg);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        throw std::invalid_argument("--seconds must be in (0, 600]");
    return o;
}

void
printTable(const char *title, const Report &report)
{
    std::cout << title << "\n";
    for (const auto &[name, m] : report)
        std::cout << "  " << std::left << std::setw(34) << name
                  << std::right << std::setw(16) << std::setprecision(6)
                  << m.value << " " << std::left << std::setw(8) << m.unit
                  << " n=" << m.samples << std::right << "\n";
}

std::string
resultJson(const Outcome &outcome, const Report &metrics)
{
    std::ostringstream o;
    o << std::setprecision(std::numeric_limits<double>::max_digits10);
    o << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << m.value << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    o << "}}";
    return o.str();
}

int
run(int argc, char **argv)
{
    erec::setLogLevel(erec::LogLevel::Warn);
    const RunOptions opts = parseArgs(argc, argv);
    const ServeConfig serve_config = serveConfig(opts.workload);
    if (1 + kWorkers > std::max(1U, std::thread::hardware_concurrency()))
        throw std::runtime_error(
            "generator + executor threads exceed the host's cores");

    Report e2e, layers;
    Outcome outcome;
    SpanLog log;

    // The kept set-up, timed; planner calls go to the span log.
    std::vector<WindowReading> setup_s;
    const auto record_setup = [&](std::int64_t start, double steal0) {
        const double s = static_cast<double>(nowNs() - start) * 1e-9;
        setup_s.push_back({s, stealShare(stealMs() - steal0, s)});
    };
    std::int64_t t0 = nowNs();
    const double steal0 = stealMs();
    auto serve = std::make_unique<ServeWorkload>(serve_config, &log);
    auto sim = std::make_unique<SimWorkload>(opts.seed, &log);
    record_setup(t0, steal0);
    e2e["rss_mib"] = {rssMib(), "MiB", 1};
    layers["core.plan_ms"] = {0.0, "ms", 0};
    for (const Span &s : log.spans()) {
        layers["core.plan_ms"].value +=
            static_cast<double>(s.endNs - s.startNs) * 1e-6;
        ++layers["core.plan_ms"].samples;
    }
    // Repeat set-ups: built, timed and released. The host's speed
    // drifts over tens of seconds, so they are spread over the run
    // rather than taken back to back: after every ladder window where
    // two set-ups fit in memory, else after the serving phase (once
    // its instance is released) and after the simulation.
    const auto time_setup = [&] {
        const std::int64_t start = nowNs();
        const double steal_start = stealMs();
        const ServeWorkload serve_again(serve_config, nullptr);
        const SimWorkload sim_again(opts.seed, nullptr);
        record_setup(start, steal_start);
    };

    const std::string provenance =
        provenanceJson(opts, serve->kernelBackend());
    std::cout << "provenance " << provenance << "\n" << std::flush;

    const std::int64_t origin = nowNs();
    // Where a run's wall time goes, seconds from the start of the run.
    const auto mark = [&](const char *phase) {
        std::cout << "timeline " << phase << " done at "
                  << static_cast<double>(nowNs() - t0) * 1e-9 << " s\n";
    };
    mark("set-up");
    serve->run(opts, e2e, layers, outcome, log, [&] {
        if (serve_config.setUpBetweenSteps)
            time_setup();
    });
    serve.reset();
    mark("serving");
    if (setup_s.size() < kMinSetups)
        time_setup();
    sim->run(opts, e2e, layers, outcome, log);
    sim.reset();
    mark("simulation");
    while (setup_s.size() < kMinSetups)
        time_setup();
    mark("repeat set-ups");
    std::size_t quiet_setups = 0;
    std::cout << "set-up times (s, steal %):";
    for (const WindowReading &t : setup_s)
        std::cout << " " << t.value << " (" << std::setprecision(2)
                  << 100.0 * t.stealShare << std::setprecision(6) << ")";
    e2e["setup_s"] = {quietMedian(setup_s, &quiet_setups), "s",
                      setup_s.size()};
    std::cout << "\nquiet set-ups kept: " << quiet_setups << " of "
              << setup_s.size() << "\n";

    printTable("end-to-end", e2e);
    printTable("per-layer", layers);
    if (opts.trace) {
        std::filesystem::create_directories(opts.outDir);
        const std::string path =
            opts.outDir + "/" + opts.workload + ".spans.jsonl";
        std::ofstream out(path);
        out << provenance << "\n";
        // Spans of every 16th query id (request and probe trees), plus
        // the plan and simulation spans, which carry query id 0.
        log.writeJsonl(out, origin, 16);
        if (!out.good())
            throw std::runtime_error("cannot write " + path);
        std::cout << "span dump: " << path << " (" << log.spans().size()
                  << " spans recorded)\n";
    }
    if (!outcome.correct)
        std::cout << "CORRECTNESS FAILURE: " << outcome.failed << " of "
                  << outcome.attempted << " checks failed\n";
    std::cout << resultJson(outcome, opts.trace ? layers : e2e) << "\n";
    return outcome.correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "erec_perfbench: " << e.what() << "\n";
        return 2;
    }
}
