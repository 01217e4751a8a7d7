/**
 * @file
 * Self-test of the benchmark's metric arithmetic on hand-made inputs:
 * claim error scoring, zero-base ratios, medians, the tail-percentile
 * rule and span self times. Exit status is the number of failures.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "metric_math.h"

namespace {

int failures = 0;

void
expectNear(double got, double want, const char *what)
{
    if (std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)))
        return;
    ++failures;
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got,
                 want);
}

} // namespace

int
main()
{
    using namespace perfbench;

    // Point claims score the absolute distance, in percentage points.
    expectNear(claimErrorPp(ClaimKind::Point, 0.37, 0.37, 0.323), 4.7,
               "point below");
    expectNear(claimErrorPp(ClaimKind::Point, 0.20, 0.20, 0.31), 11.0,
               "point above");
    expectNear(claimErrorPp(ClaimKind::Point, 0.5, 0.5, 0.5), 0.0,
               "point exact");
    // Range claims score only the distance outside the interval.
    expectNear(claimErrorPp(ClaimKind::Range, 0.07, 0.14, 0.10), 0.0,
               "range inside");
    expectNear(claimErrorPp(ClaimKind::Range, 0.07, 0.14, 0.07), 0.0,
               "range edge");
    expectNear(claimErrorPp(ClaimKind::Range, 0.07, 0.14, 0.184), 4.4,
               "range above");
    expectNear(claimErrorPp(ClaimKind::Range, 0.09, 0.19, 0.075), 1.5,
               "range below");
    // Bound claims are one-sided ranges.
    expectNear(claimErrorPp(ClaimKind::AtLeast, 0.12, 1.0, 0.175), 0.0,
               "floor met");
    expectNear(claimErrorPp(ClaimKind::AtLeast, 0.12, 1.0, 0.10), 2.0,
               "floor missed");
    expectNear(claimErrorPp(ClaimKind::AtMost, 0.0, 0.001, -0.0005), 0.0,
               "ceiling met");
    expectNear(claimErrorPp(ClaimKind::AtMost, 0.0, 0.001, 0.003), 0.2,
               "ceiling missed");

    // Ratios with a zero base read 0, never inf or nan.
    expectNear(ratio(3.0, 4.0), 0.75, "ratio");
    expectNear(ratio(5.0, 0.0), 0.0, "ratio zero base");
    expectNear(ratio(0.0, 0.0), 0.0, "ratio zero over zero");

    expectNear(median({}), 0.0, "median empty");
    expectNear(median({3.0, 1.0, 2.0}), 2.0, "median odd");
    expectNear(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");

    // Tail rule: the highest percentile with >= 10 samples beyond it.
    expectNear(tailPercentile(19).den, 0, "19 samples: none");
    expectNear(tailPercentile(20).percent(), 50.0, "20 samples: p50");
    expectNear(tailPercentile(99).percent(), 50.0, "99 samples: p50");
    expectNear(tailPercentile(100).percent(), 90.0, "100 samples: p90");
    expectNear(tailPercentile(999).percent(), 90.0, "999 samples: p90");
    expectNear(tailPercentile(1000).percent(), 99.0, "1000 samples: p99");
    expectNear(tailPercentile(10000).percent(), 99.9,
               "10000 samples: p99.9");
    std::vector<double> ramp;
    for (int i = 1; i <= 100; ++i)
        ramp.push_back(i);
    expectNear(percentileOf(ramp, tailPercentile(ramp.size())), 90.0,
               "p90 of 1..100");
    expectNear(percentileOf(ramp, {1, 2}), 50.0, "p50 of 1..100");
    expectNear(percentileOf({}, {1, 2}), 0.0, "percentile of nothing");

    // Self time: parent [0,10] with overlapping children [1,3], [2,5]
    // and [8,12] (clipped to 10) covers 4 + 2 = 6, leaving 4. The
    // grandchild does not count against the root.
    const std::vector<Span> spans = {{"root", 0, 10, -1},
                                     {"a", 1, 3, 0},
                                     {"b", 2, 5, 0},
                                     {"c", 8, 12, 0},
                                     {"a.x", 1.5, 2.5, 1}};
    const std::vector<double> self = selfTimes(spans);
    expectNear(self[0], 4.0, "root self");
    expectNear(self[1], 1.0, "child with grandchild");
    expectNear(self[2], 3.0, "leaf child");
    expectNear(self[4], 1.0, "grandchild");

    if (failures == 0)
        std::printf("metric maths: all checks passed\n");
    return failures;
}
