#pragma once

/**
 * @file
 * The benchmark's own arithmetic: quantiles and the samples behind
 * them, the open-loop rate ladder (per-step SLO verdict, backlog
 * detector, goodput selection) and the response check. Everything here
 * is a pure function of its inputs so perfbench_selftest can pin it
 * with synthetic data, without timing anything.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank quantile of an unsorted sample (q in [0, 1]): the
 * smallest value with at least ceil(q * n) values at or below it.
 * Returns 0 for an empty sample.
 */
double quantile(std::vector<double> values, double q);

/** quantile(values, 0.5). */
double median(std::vector<double> values);

/**
 * How many samples lie strictly beyond the nearest-rank q-quantile of
 * an n-sample set: n - ceil(q * n).
 */
std::uint64_t samplesBeyond(std::uint64_t n, double q);

/**
 * One window's reading of a gated metric, with the share of the
 * guest's CPU time (window wall time x CPUs) the hypervisor stole from
 * it to run other guests.
 */
struct WindowReading
{
    double value = 0.0;
    double stealShare = 0.0;
};

/**
 * The steal share up to which a window or set-up counts as quiet. On
 * the 4-vCPU guest of NOTES.md's baseline, undisturbed serving windows
 * show 0-1%, and at 6-8% serve_cold's light p50 reads 15-30% high.
 */
inline constexpr double kQuietSteal = 0.02;

/**
 * Median over the windows the host left alone: those whose steal share
 * is at most kQuietSteal, or, when fewer than half of the windows are,
 * the least-stolen half. Steal slows every thread of the guest, so windows
 * with much of it measure the neighbours rather than the program; the
 * choice depends only on steal, never on the values. `kept`, when
 * non-null, receives the number of windows the median is over.
 */
double quietMedian(std::vector<WindowReading> windows,
                   std::size_t *kept = nullptr);

/** One reading of the open-loop backlog: requests due minus completed. */
struct BacklogSample
{
    double tSec = 0.0;
    double backlog = 0.0;
};

/** Least-squares slope of backlog over time, requests per second. */
double backlogSlope(const std::vector<BacklogSample> &samples);

/**
 * True when the backlog grows by more than `tolerance` of the offered
 * rate (default 2%): the stack is falling behind the schedule rather
 * than absorbing a burst.
 */
bool backlogGrows(const std::vector<BacklogSample> &samples,
                  double offered_qps, double tolerance = 0.02);

/** What one rate step of the ladder measured. */
struct StepResult
{
    double offeredQps = 0.0;
    double durationSec = 0.0;
    std::uint64_t sent = 0;
    /** Failed, refused or wrong responses. */
    std::uint64_t failed = 0;
    /** Completion rate over the step (completed / step wall time). */
    double achievedQps = 0.0;
    double p50Ms = 0.0;
    /** Nearest-rank p99 of the step's latencies. */
    double p99Ms = 0.0;
    /** Samples beyond the p99 (>= 10 for the p99 to count). */
    std::uint64_t beyondP99 = 0;
    /**
     * CPU time of every thread but the generator's over the step,
     * divided by the requests sent: what serving one query costs the
     * executor's workers (dispatch, batching and serve), microseconds.
     */
    double workerCpuUs = 0.0;
    /** p99 of how late the generator sent requests, milliseconds. */
    double lateP99Ms = 0.0;
    bool backlogGrowing = false;
};

/**
 * The step's verdict: p99 within the limit (and resolved by at least
 * ten samples beyond it), no failure, no growing backlog.
 */
bool meetsSlo(const StepResult &step, double p99_limit_ms);

/**
 * Index of the goodput step: the highest-rate step that meets the SLO,
 * or -1 when none does. Steps are in ascending rate order.
 */
int goodputStep(const std::vector<StepResult> &steps, double p99_limit_ms);

/**
 * The correctness check every sampled response goes through: same
 * length as the reference and every element within `tol` (absolute).
 */
bool responseMatches(const std::vector<float> &response,
                     const std::vector<float> &reference,
                     double tol = 1e-5);

} // namespace perfbench
