#pragma once

/**
 * @file
 * Shared pieces of the benchmark program: run options, the metric
 * report, the run outcome and the clock.
 */

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** CPU time of a POSIX clock (process or thread), ns. */
inline std::int64_t
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Commit id of the sources, or a note that there is none. */
    std::string gitSha = "unknown";
    /** Where the traced run writes its span dump. */
    std::string outDir = ".bench_out";
};

struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (1 for a single reading). */
    std::uint64_t samples = 1;
};

using Report = std::map<std::string, Metric>;

/** Whole-run tallies for the final result line. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Resident set size of this process, MiB (from /proc/self/status). */
double rssMib();

/**
 * Time the hypervisor ran something else on this guest's CPUs, summed
 * over all CPUs since boot, ms (from /proc/stat; 0 when unavailable).
 */
double stealMs();

/**
 * The share of the guest's CPU time (wall time x CPUs) that `steal_ms`
 * of steal over `wall_s` seconds is (0 when `wall_s` is not positive).
 */
double stealShare(double steal_ms, double wall_s);

/** Provenance record as one JSON object (see provenance.cc). */
std::string provenanceJson(const RunOptions &opts,
                           const std::string &kernel_backend);

} // namespace perfbench
