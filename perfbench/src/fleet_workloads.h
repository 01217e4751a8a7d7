/**
 * @file
 * The two fleet workloads and one timed FleetSim lifecycle.
 *
 *  - fleet_sparse: the paper's operating point at fleet scale. 1024
 *    C_PC1A servers at 10% core utilization under Poisson memcached
 *    ETC traffic, one thread, every optional layer off, so per-request
 *    event cost and per-server footprint do nearly all the work.
 *  - fleet_stack: 64 servers at 30% under bursty MMPP traffic with
 *    fabric, NIC, rack budget allocation at 1.25x oversubscription, a
 *    stochastic crash hazard with client recovery, the health monitor
 *    and latency attribution, so every layer of the fleet spine does
 *    real work while per-server state stays cache-resident.
 */

#ifndef APC_PERFBENCH_FLEET_WORKLOADS_H
#define APC_PERFBENCH_FLEET_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "report.h"
#include "span_log.h"

namespace perfbench {

apc::fleet::FleetConfig sparseConfig(std::uint64_t seed);

/** @param health health monitor (SLO + auditor) on
 *  @param attribution latency attribution (and with it tracing) on */
apc::fleet::FleetConfig stackConfig(std::uint64_t seed, unsigned threads,
                                    bool health, bool attribution);

/** What one FleetSim lifecycle measured and reported. */
struct FleetRun
{
    double setupSec = 0.0; ///< constructor
    double runSec = 0.0;   ///< run()
    apc::fleet::FleetReport rep;
    EngineTally tally;
    double routeSec = 0.0, advanceSec = 0.0, mergeSec = 0.0;
    double imbalance = 1.0;
    /** Engine advance-phase span durations (µs) from the profiler. */
    std::vector<double> advanceSpansUs;
    double heapBytesPerServer = 0.0;
    std::uint64_t digest = 0;
};

/** Construct, run and destroy one fleet, timing each call. */
FleetRun runFleet(const apc::fleet::FleetConfig &cfg, SpanLog &log);

/** FleetReport conservation identities, one check each. */
void checkConservation(const apc::fleet::FleetReport &rep, Checks &checks,
                       const std::string &label);

/** Time TrafficSource::epoch alone over @p cfg's horizon, epoch by
 *  epoch. @return host seconds; @p arrivals gets the count. */
double timeTraffic(const apc::fleet::FleetConfig &cfg, SpanLog &log,
                   std::uint64_t &arrivals);

} // namespace perfbench

#endif // APC_PERFBENCH_FLEET_WORKLOADS_H
