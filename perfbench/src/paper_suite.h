/**
 * @file
 * The paper's single-server scenarios (Figs. 6-9) as standalone
 * ServerSim runs, and the claims they are scored against. Claim values
 * and bounds come from analysis/paper_reference.h.
 */

#ifndef APC_PERFBENCH_PAPER_SUITE_H
#define APC_PERFBENCH_PAPER_SUITE_H

#include <cstdint>
#include <string>
#include <vector>

#include "metric_math.h"
#include "report.h"
#include "span_log.h"
#include "sim/time.h"

namespace perfbench {

/** One scored paper claim. */
struct Claim
{
    std::string name; ///< metric fragment, e.g. "fig7_sav_4k"
    ClaimKind kind;
    double lo;    ///< point value, range/floor low end (fraction)
    double hi;    ///< range/ceiling high end (fraction)
    bool heldOut; ///< Fig. 9 (Kafka): no fidelity work tunes toward it
    double sim;   ///< simulated value (fraction)

    double errPp() const { return claimErrorPp(kind, lo, hi, sim); }
};

/** One pass over every scenario. */
struct PaperPass
{
    std::vector<Claim> claims;
    /** Worst C_PC1A-over-Cshallow average-latency increase across the
     *  memcached sweep, as a fraction. */
    double latImpact = 0.0;
    /** That increase at each memcached load point, in sweep order. */
    std::vector<double> latImpactByLoad;
    std::uint64_t digest = 0;
    EngineTally tally;
    std::uint64_t pc1aEntries = 0;   ///< C_PC1A runs with load
    std::uint64_t pc1aRequests = 0;  ///< their measured requests
    double heapBytesPerServer = 0.0; ///< heap growth per live ServerSim
    double setupSec = 0.0;           ///< summed ServerSim constructors
    double runSec = 0.0;             ///< summed start + advance + collect
    double advanceSec = 0.0;         ///< summed advanceTo
};

/**
 * Measurement windows (warmup is 20 ms on top). A loaded scenario runs
 * long enough to serve about kPaperRequests requests, so low-rate
 * points (MySQL at 784 QPS, memcached at 4K) are scored on as many
 * samples as high-rate ones and the claim errors barely move with the
 * seed; host cost scales with requests, not simulated time.
 */
inline constexpr double kPaperRequests = 150e3;
inline constexpr apc::sim::Tick kPaperMinWindow = 1 * apc::sim::kSec;

/** Run every scenario once at @p seed; spans go to @p log. Sanity
 *  checks on each result land in @p checks. */
PaperPass runPaperPass(std::uint64_t seed, SpanLog &log, Checks &checks);

/** Mean error (pp) over the held-in or the held-out claims. */
double meanErrPp(const std::vector<Claim> &claims, bool held_out);

/** The per-claim table (sim, paper, error, held-out marker) and the
 *  latency impact at each memcached load point. */
void printClaimTable(const PaperPass &pass);

} // namespace perfbench

#endif // APC_PERFBENCH_PAPER_SUITE_H
