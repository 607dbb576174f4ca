/**
 * @file
 * Synthetic checks of the benchmark's own arithmetic: quantiles, the
 * samples beyond them, the ladder's SLO verdict, backlog detector and
 * goodput selection, the steal-based choice of windows, span self time,
 * and the response check. No test here times anything. Exit code 0
 * when every check passes.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++g_failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testQuantiles()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i); // 1..100, reversed
    check(near(quantile(v, 0.5), 50), "p50 of 1..100 is 50 (nearest rank)");
    check(near(quantile(v, 0.99), 99), "p99 of 1..100 is 99");
    check(near(quantile(v, 1.0), 100), "p100 is the maximum");
    check(near(quantile(v, 0.0), 1), "p0 is the minimum");
    check(near(median({7}), 7), "median of one sample");
    check(quantile({}, 0.5) == 0.0, "empty sample gives 0");
    check(near(median({3, 1, 2}), 2), "median of three");

    check(samplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
    check(samplesBeyond(1099, 0.99) == 10, "1099 samples: 10 beyond p99");
    check(samplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
    check(samplesBeyond(0, 0.99) == 0, "no samples: none beyond");

    // A stall puts 60 of 5000 latencies over the limit: more than 1%,
    // so the step's p99 must be the stall.
    std::vector<double> w;
    for (int k = 0; k < 5; ++k)
        for (int i = 1; i <= 1000; ++i)
            w.push_back(k == 2 && i > 940 ? 1e6 : i);
    check(quantile(w, 0.99) == 1e6, "a stall of over 1% sets the p99");
}

StepResult
step(double rate, double p99, bool backlog = false,
     std::uint64_t failed = 0, std::uint64_t sent = 2000)
{
    StepResult s;
    s.offeredQps = rate;
    s.sent = sent;
    s.failed = failed;
    s.p99Ms = p99;
    s.beyondP99 = samplesBeyond(sent, 0.99);
    s.backlogGrowing = backlog;
    s.achievedQps = rate;
    return s;
}

void
testLadder()
{
    check(meetsSlo(step(100, 4.9), 5.0), "p99 under the limit passes");
    check(meetsSlo(step(100, 5.0), 5.0), "p99 at the limit passes");
    check(!meetsSlo(step(100, 5.1), 5.0), "p99 over the limit fails");
    check(!meetsSlo(step(100, 1.0, true), 5.0), "growing backlog fails");
    check(!meetsSlo(step(100, 1.0, false, 1), 5.0), "one failure fails");
    check(!meetsSlo(step(100, 1.0, false, 0, 999), 5.0),
          "p99 with only 9 samples beyond it does not count");

    const std::vector<StepResult> ladder = {
        step(100, 1), step(200, 2), step(300, 3), step(400, 6),
        step(500, 4, true)};
    check(goodputStep(ladder, 5.0) == 2, "goodput is the 300 step");
    const std::vector<StepResult> dip = {step(100, 1), step(200, 9),
                                         step(300, 3), step(400, 7)};
    check(goodputStep(dip, 5.0) == 2,
          "a miss below a pass does not lower goodput");
    // Outcomes P P P P P M M P M M: goodput is the highest pass, which
    // itself met the SLO.
    std::vector<StepResult> mixed;
    for (int k = 0; k < 10; ++k)
        mixed.push_back(step(100.0 * (k + 1),
                             k < 5 || k == 7 ? 1.0 : 9.0));
    const int gp = goodputStep(mixed, 5.0);
    check(gp == 7, "goodput is the highest passing step");
    check(gp >= 0 && meetsSlo(mixed[static_cast<std::size_t>(gp)], 5.0),
          "the goodput step meets the SLO");
    check(goodputStep({step(100, 9)}, 5.0) == -1, "no passing step: -1");

    // Backlog: flat with noise, then falling behind by 5% of the rate.
    std::vector<BacklogSample> flat, growing;
    for (int i = 0; i < 16; ++i) {
        const double t = 0.1 * i;
        flat.push_back({t, 20.0 + ((i % 3) - 1) * 5.0});
        growing.push_back({t, 20.0 + 0.05 * 10000.0 * t});
    }
    check(std::fabs(backlogSlope(flat)) < 50.0, "flat backlog has ~0 slope");
    check(near(backlogSlope(growing), 500.0), "slope is 500 requests/s");
    check(!backlogGrows(flat, 10000.0), "flat backlog does not grow");
    check(backlogGrows(growing, 10000.0), "5% shortfall is a growing backlog");
    check(!backlogGrows(growing, 30000.0),
          "the same slope is within 2% of a higher rate");
    check(backlogSlope({{0.0, 5.0}}) == 0.0, "one reading has no slope");
}

void
testQuietMedian()
{
    std::size_t kept = 0;
    check(near(quietMedian({{3, 0}, {1, 0.01}, {2, 0}}, &kept), 2) &&
              kept == 3,
          "all windows quiet: plain median");
    // The loud window reads low here, so dropping it must raise the
    // median: the choice goes by steal, not by value.
    check(near(quietMedian({{5, 0}, {0.1, 0.3}, {4, 0}, {6, 0.01}, {7, 0}},
                           &kept),
               5) &&
              kept == 4,
          "a loud window is left out");
    check(near(quietMedian({{9, 0.5}, {1, 0.1}, {2, 0.2}, {8, 0.4}}, &kept),
               1) &&
              kept == 2,
          "all loud: median of the least-stolen half");
    check(near(quietMedian({{4, 0.1}, {1, 0}, {9, 0.3}}, &kept), 1) &&
              kept == 2,
          "one quiet of three: topped up to half (rounded up)");
    check(quietMedian({}, &kept) == 0.0 && kept == 0,
          "no windows gives 0");
}

void
testSelfTime()
{
    check(selfTimeNs(0, 100, {}) == 100, "no children: all self");
    check(selfTimeNs(0, 100, {{10, 30}, {50, 60}}) == 70,
          "disjoint children are subtracted");
    check(selfTimeNs(0, 100, {{10, 40}, {20, 50}}) == 60,
          "overlapping children count once");
    check(selfTimeNs(0, 100, {{-20, 10}, {90, 130}}) == 80,
          "children are clipped to the parent");
    check(selfTimeNs(0, 100, {{50, 60}, {10, 20}}) == 80,
          "children in any order");

    SpanLog log;
    const auto root = log.add("request", 7, 0, 0, 1000);
    log.add("runtime.queue", 7, root, 100, 300);
    const auto serve = log.add("serving.serve", 7, root, 300, 900);
    log.add("embedding.gather.s0", 7, serve, 400, 700);
    const auto self = log.selfTimesNs();
    check(self[0] == 1000 - 200 - 600, "request self time");
    check(self[2] == 600 - 300, "serve self time excludes its gather");
    const auto probe = log.add("probe", 8, 0, 2000, 2000);
    log.close(probe, 2500);
    check(log.spans()[probe - 1].endNs == 2500, "close sets the end");
}

void
testResponseCheck()
{
    const std::vector<float> ref = {0.25f, 0.5f, 0.75f};
    check(responseMatches(ref, ref), "identical response matches");
    std::vector<float> close = ref;
    close[1] += 5e-6f;
    check(responseMatches(close, ref), "difference under 1e-5 matches");
    std::vector<float> perturbed = ref;
    perturbed[2] += 1e-3f;
    check(!responseMatches(perturbed, ref), "perturbed response fails");
    check(!responseMatches({0.25f, 0.5f}, ref), "short response fails");
    std::vector<float> nan = ref;
    nan[0] = std::numeric_limits<float>::quiet_NaN();
    check(!responseMatches(nan, ref), "NaN fails");
}

} // namespace
} // namespace perfbench

int
main()
{
    perfbench::testQuantiles();
    perfbench::testLadder();
    perfbench::testQuietMedian();
    perfbench::testSelfTime();
    perfbench::testResponseCheck();
    if (perfbench::g_failures > 0) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                     perfbench::g_failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
