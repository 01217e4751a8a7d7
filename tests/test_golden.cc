/**
 * @file
 * Golden reports: the exact bytes a small sparse fleet, a small fleet
 * with every optional layer on, and a short memcached server run
 * print. A change that claims "same behaviour" (an engine or layout
 * optimisation) must leave all three untouched; a change that alters
 * the simulation on purpose regenerates them and says what moved.
 *
 * To regenerate, run this binary: each failure prints the new string
 * as the actual value.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fleet/fleet_sim.h"
#include "server/server_sim.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;

int
fleetCores(const fleet::FleetConfig &fc)
{
    return static_cast<int>(fc.numServers) *
        soc::SkxConfig::forPolicy(fc.policy).numCores;
}

/** The paper's operating point, scaled down: mostly idle C_PC1A
 *  servers at 10% load, optional layers off. */
fleet::FleetConfig
sparseFleet()
{
    fleet::FleetConfig fc;
    fc.numServers = 32;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(0.10, fleetCores(fc));
    fc.sloUs = 10000.0;
    fc.warmup = 2 * kMs;
    fc.duration = 6 * kMs;
    fc.epoch = 200 * kUs;
    fc.seed = 1;
    return fc;
}

/** Every fleet layer at once: MMPP load, fabric, NIC, rack budget,
 *  crash faults, recovery, health and attribution. */
fleet::FleetConfig
stackFleet()
{
    fleet::FleetConfig fc;
    fc.numServers = 12;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
    fc.traffic.burstiness = fc.workload.burstiness;
    fc.traffic.burstMean = fc.workload.burstMean;
    fc.traffic.qps = fc.workload.qpsForUtilization(0.30, fleetCores(fc));
    fc.sloUs = 10000.0;
    fc.warmup = 5 * kMs;
    fc.duration = 30 * kMs;
    fc.seed = 2;
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.budget.enabled = true;
    fc.budget.oversubscription = 1.25;
    fc.faults.enabled = true;
    fc.faults.crash.ratePerSec = 12.0;
    fc.faults.crash.mttr = fc.duration / 6;
    fc.recovery.enabled = true;
    fc.health.enabled = true;
    fc.attribution.enabled = true;
    return fc;
}

/** A short memcached C_PC1A run, summarized at fixed precision. */
std::string
memcachedSummary()
{
    server::ServerConfig cfg;
    cfg.policy = soc::PackagePolicy::Cpc1a;
    cfg.workload = workload::WorkloadConfig::memcachedEtc(50000);
    cfg.duration = 40 * kMs;
    cfg.seed = 7;
    server::ServerSim sim(std::move(cfg));
    const server::ServerResult r = sim.run();
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "req=%llu qps=%.6f pkgW=%.6f dramW=%.6f avgUs=%.6f "
                  "p50Us=%.6f p99Us=%.6f maxUs=%.6f util=%.6f "
                  "allIdle=%.6f pc1a=%.6f entries=%llu entryNs=%.6f "
                  "exitNs=%.6f",
                  static_cast<unsigned long long>(r.requests),
                  r.achievedQps, r.pkgPowerW, r.dramPowerW,
                  r.avgLatencyUs, r.p50LatencyUs, r.p99LatencyUs,
                  r.maxLatencyUs, r.utilization, r.allIdleFraction,
                  r.pc1aResidency(),
                  static_cast<unsigned long long>(r.pc1aEntries),
                  r.apmuEntryNsAvg, r.apmuExitNsAvg);
    return buf;
}

TEST(Golden, SparseFleetReport)
{
    fleet::FleetSim fleet(sparseFleet());
    EXPECT_EQ(fleet.run().csvRow(),
              "32,5399,5399,0,0,899833.3,1335.968,148.417,0.000,0.000,"
              "1484.385,0.001650,138.18,134.33,174.06,192.27,239.75,304.51,"
              "10000.0,0.000000,0.0747,0.3185,0,0,0.00,0.00,0.0000,"
              "0.000000,0.0000,0.0000,0,0,0");
}

TEST(Golden, EveryLayerFleetReport)
{
    fleet::FleetSim fleet(stackFleet());
    EXPECT_EQ(fleet.run().csvRow(),
              "12,28618,28618,0,0,953933.3,593.201,67.851,54.941,19.821,"
              "735.812,0.000771,176.28,155.55,234.88,504.03,932.43,1720.61,"
              "10000.0,0.000000,0.2787,0.2138,10083,0,2.83,595.20,0.9846,"
              "0.000000,0.0498,0.1470,0,0,14");
}

TEST(Golden, MemcachedServerSummary)
{
    EXPECT_EQ(memcachedSummary(),
              "req=2035 qps=50875.000000 pkgW=44.071960 dramW=4.847717 "
              "avgUs=139.447184 p50Us=134.534132 p99Us=195.750550 "
              "maxUs=268.221322 util=0.127612 allIdle=0.313154 "
              "pc1a=0.310160 entries=613 entryNs=8.000000 exitNs=155.133163");
}

} // namespace
} // namespace apc
