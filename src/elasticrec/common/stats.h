#pragma once

/**
 * @file
 * Statistics primitives used by the metrics registry and the simulator:
 * rate (QPS) windows over simulated time and simple time series.
 * Quantiles live in obs/sketch.h.
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "elasticrec/common/ring.h"
#include "elasticrec/common/units.h"

namespace erec {

/**
 * Event-rate window: counts events over a sliding window of simulated
 * time and reports a rate in events per second. This is how the metrics
 * server measures QPS.
 *
 * Backed by a Ring rather than a deque: add() sits on the simulator's
 * per-completion path, which must be allocation-free once the window
 * has reached its steady population.
 */
class RateWindow
{
  public:
    explicit RateWindow(SimTime window) : window_(window) {}

    void add(SimTime t, std::uint64_t count = 1);

    /** Events per second over the trailing window ending at now. */
    double rate(SimTime now);

    std::uint64_t total() const { return total_; }

  private:
    void expire(SimTime now);

    SimTime window_;
    Ring<std::pair<SimTime, std::uint64_t>> events_;
    std::uint64_t inWindow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * A (time, value) series with CSV export, used for Figure 19-style
 * longitudinal plots.
 */
class TimeSeries
{
  public:
    void add(SimTime t, double v) { points_.emplace_back(t, v); }

    const std::vector<std::pair<SimTime, double>> &points() const
    {
        return points_;
    }

    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

    double maxValue() const;
    double meanValue() const;

  private:
    std::vector<std::pair<SimTime, double>> points_;
};

} // namespace erec
