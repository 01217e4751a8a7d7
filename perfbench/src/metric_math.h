/**
 * @file
 * The benchmark's metric arithmetic, kept free of simulator types so
 * the self-test can check it on hand-made inputs: paper-claim error
 * scoring, zero-safe ratios, medians, the tail-percentile rule and
 * span self times.
 */

#ifndef APC_PERFBENCH_METRIC_MATH_H
#define APC_PERFBENCH_METRIC_MATH_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** How a paper claim constrains the simulated value. */
enum class ClaimKind
{
    Point,   ///< the paper reports one value
    Range,   ///< the paper reports an interval [lo, hi]
    AtLeast, ///< the paper reports a floor (lo)
    AtMost,  ///< the paper reports a ceiling (hi)
};

/**
 * Error of @p sim against one claim, in percentage points (inputs are
 * fractions). A point claim scores |sim - lo|; a range or bound claim
 * scores the distance by which @p sim falls outside it (0 inside).
 */
inline double
claimErrorPp(ClaimKind kind, double lo, double hi, double sim)
{
    double miss = 0.0;
    switch (kind) {
    case ClaimKind::Point:
        miss = std::fabs(sim - lo);
        break;
    case ClaimKind::Range:
        miss = sim < lo ? lo - sim : (sim > hi ? sim - hi : 0.0);
        break;
    case ClaimKind::AtLeast:
        miss = sim < lo ? lo - sim : 0.0;
        break;
    case ClaimKind::AtMost:
        miss = sim > hi ? sim - hi : 0.0;
        break;
    }
    return 100.0 * miss;
}

/** @p num / @p den, or 0 when the base is 0 (nothing to divide). */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Median (mean of the middle pair for even counts); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2.0;
}

/** A percentile as an exact fraction num/den (p50 = 1/2, p99 =
 *  99/100), so sample counts compare in integers. */
struct Percentile
{
    std::uint64_t num = 0;
    std::uint64_t den = 1;
    double percent() const
    {
        return 100.0 * static_cast<double>(num) / static_cast<double>(den);
    }
};

/** Nearest-rank position (1-based) of percentile @p p among @p n. */
inline std::uint64_t
nearestRank(std::uint64_t n, Percentile p)
{
    return (n * p.num + p.den - 1) / p.den;
}

/**
 * The highest of p50, p90, p99, p99.9 and p99.99 that still has at
 * least ten of @p n samples beyond it; den == 0 when even p50 does not
 * (fewer than 20 samples).
 */
inline Percentile
tailPercentile(std::uint64_t n)
{
    static constexpr Percentile kLadder[] = {
        {9999, 10000}, {999, 1000}, {99, 100}, {9, 10}, {1, 2}};
    for (const Percentile p : kLadder)
        if (n >= 10 && n - nearestRank(n, p) >= 10)
            return p;
    return {0, 0};
}

/** Nearest-rank percentile of @p v; 0 when empty. */
inline double
percentileOf(std::vector<double> v, Percentile p)
{
    if (v.empty() || p.den == 0)
        return 0.0;
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, nearestRank(v.size(), p));
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

/** One recorded interval (seconds); parent < 0 for a root span. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/**
 * Self time of every span: its duration minus the part of it covered
 * by the union of its children's intervals (clipped to the parent).
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = p.start; // covered up to here
        for (const auto &[a, b] : iv) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, p.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

} // namespace perfbench

#endif // APC_PERFBENCH_METRIC_MATH_H
