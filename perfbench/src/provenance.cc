#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/** First line of `path` that starts with `key`, after the colon. */
std::string
fieldOf(const std::string &path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            return {};
        const auto begin = line.find_first_not_of(" \t", colon + 1);
        return begin == std::string::npos ? std::string{}
                                          : line.substr(begin);
    }
    return {};
}

std::string
firstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line.empty() ? "unknown" : line;
}

/** JSON string literal (the values here never hold control bytes). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

double
rssMib()
{
    const std::string kb = fieldOf("/proc/self/status", "VmRSS");
    return kb.empty() ? 0.0 : std::stod(kb) / 1024.0;
}

double
stealMs()
{
    // First line of /proc/stat: "cpu user nice system idle iowait irq
    // softirq steal ...", in clock ticks summed over all CPUs.
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {};
    in >> cpu;
    for (double &x : v)
        in >> x;
    return in ? v[7] * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK))
              : 0.0;
}

double
stealShare(double steal_ms, double wall_s)
{
    const double cpus = std::max(1U, std::thread::hardware_concurrency());
    return wall_s > 0.0 ? steal_ms / (wall_s * 1e3 * cpus) : 0.0;
}

std::string
provenanceJson(const RunOptions &opts, const std::string &kernel_backend)
{
    std::ostringstream o;
    o << "{\"git_sha\":" << quoted(opts.gitSha)
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
      << ",\"kernel_backend\":" << quoted(kernel_backend)
      << ",\"cpu_model\":" << quoted(fieldOf("/proc/cpuinfo", "model name"))
      << ",\"llc\":"
      << quoted(firstLine("/sys/devices/system/cpu/cpu0/cache/index3/size"))
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"workload\":" << quoted(opts.workload)
      << ",\"seed\":" << opts.seed << "}";
    return o.str();
}

} // namespace perfbench
