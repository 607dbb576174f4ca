#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/** ceil(q * n) clamped to [1, n]: the 1-based nearest rank. */
std::uint64_t
nearestRank(std::uint64_t n, double q)
{
    const double r = std::ceil(std::clamp(q, 0.0, 1.0) *
                               static_cast<double>(n));
    return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(r), 1, n);
}

} // namespace

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const std::uint64_t k = nearestRank(values.size(), q) - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quietMedian(std::vector<WindowReading> windows, std::size_t *kept)
{
    std::stable_sort(windows.begin(), windows.end(),
                     [](const WindowReading &a, const WindowReading &b) {
                         return a.stealShare < b.stealShare;
                     });
    std::size_t n = 0;
    while (n < windows.size() && windows[n].stealShare <= kQuietSteal)
        ++n;
    n = std::max(n, (windows.size() + 1) / 2);
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i)
        values.push_back(windows[i].value);
    if (kept != nullptr)
        *kept = n;
    return median(std::move(values));
}

std::uint64_t
samplesBeyond(std::uint64_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

double
backlogSlope(const std::vector<BacklogSample> &samples)
{
    if (samples.size() < 2)
        return 0.0;
    double mt = 0.0, mb = 0.0;
    for (const auto &s : samples) {
        mt += s.tSec;
        mb += s.backlog;
    }
    mt /= static_cast<double>(samples.size());
    mb /= static_cast<double>(samples.size());
    double num = 0.0, den = 0.0;
    for (const auto &s : samples) {
        num += (s.tSec - mt) * (s.backlog - mb);
        den += (s.tSec - mt) * (s.tSec - mt);
    }
    return den > 0.0 ? num / den : 0.0;
}

bool
backlogGrows(const std::vector<BacklogSample> &samples, double offered_qps,
             double tolerance)
{
    return backlogSlope(samples) > tolerance * offered_qps;
}

bool
meetsSlo(const StepResult &step, double p99_limit_ms)
{
    return step.sent > 0 && step.failed == 0 && !step.backlogGrowing &&
           step.beyondP99 >= 10 && step.p99Ms <= p99_limit_ms;
}

int
goodputStep(const std::vector<StepResult> &steps, double p99_limit_ms)
{
    for (std::size_t k = steps.size(); k > 0; --k)
        if (meetsSlo(steps[k - 1], p99_limit_ms))
            return static_cast<int>(k - 1);
    return -1;
}

bool
responseMatches(const std::vector<float> &response,
                const std::vector<float> &reference, double tol)
{
    if (response.size() != reference.size())
        return false;
    for (std::size_t i = 0; i < response.size(); ++i) {
        const double d = static_cast<double>(response[i]) -
                         static_cast<double>(reference[i]);
        // Written so a NaN on either side fails the check.
        if (!(std::fabs(d) <= tol))
            return false;
    }
    return true;
}

} // namespace perfbench
