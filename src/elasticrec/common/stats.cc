#include "elasticrec/common/stats.h"

#include <algorithm>

namespace erec {

void
RateWindow::add(SimTime t, std::uint64_t count)
{
    events_.push({t, count});
    inWindow_ += count;
    total_ += count;
    expire(t);
}

void
RateWindow::expire(SimTime now)
{
    const SimTime cutoff = now - window_;
    while (!events_.empty() && events_.front().first < cutoff) {
        inWindow_ -= events_.front().second;
        events_.pop();
    }
}

double
RateWindow::rate(SimTime now)
{
    expire(now);
    if (window_ <= 0)
        return 0.0;
    return static_cast<double>(inWindow_) / units::toSeconds(window_);
}

double
TimeSeries::maxValue() const
{
    double m = 0.0;
    for (const auto &[t, v] : points_)
        m = std::max(m, v);
    return m;
}

double
TimeSeries::meanValue() const
{
    if (points_.empty())
        return 0.0;
    double s = 0.0;
    for (const auto &[t, v] : points_)
        s += v;
    return s / static_cast<double>(points_.size());
}

} // namespace erec
