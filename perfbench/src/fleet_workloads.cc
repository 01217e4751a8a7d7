#include "fleet_workloads.h"

#include <malloc.h>

#include <memory>

#include "soc/skx_config.h"

namespace perfbench {
namespace {

using namespace apc;

int
fleetCores(const fleet::FleetConfig &fc)
{
    return static_cast<int>(fc.numServers) *
        soc::SkxConfig::forPolicy(fc.policy).numCores;
}

/** Digest input: the headline CSV row plus exact accounting counters
 *  (all of it must match across thread counts and observers). */
std::string
reportKey(const fleet::FleetReport &r)
{
    std::string key = r.csvRow();
    for (const std::uint64_t v :
         {r.inFlightAtEnd, r.replicasDispatched, r.serversAccepted,
          r.serversCompleted, r.timeouts, r.fabricStats.enqueued,
          r.fabricStats.delivered, r.fabricStats.dropped})
        key += "," + std::to_string(v);
    return key;
}

} // namespace

fleet::FleetConfig
sparseConfig(std::uint64_t seed)
{
    fleet::FleetConfig fc;
    fc.numServers = 1024;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(0.10, fleetCores(fc));
    fc.sloUs = 10000.0;
    fc.warmup = 4 * sim::kMs;
    fc.duration = 8 * sim::kMs;
    fc.epoch = 200 * sim::kUs;
    fc.seed = seed;
    fc.threads = 1;
    return fc;
}

fleet::FleetConfig
stackConfig(std::uint64_t seed, unsigned threads, bool health,
            bool attribution)
{
    fleet::FleetConfig fc;
    fc.numServers = 64;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Mmpp;
    fc.traffic.burstiness = fc.workload.burstiness;
    fc.traffic.burstMean = fc.workload.burstMean;
    fc.traffic.qps = fc.workload.qpsForUtilization(0.30, fleetCores(fc));
    fc.sloUs = 10000.0;
    fc.warmup = 10 * sim::kMs;
    // Long enough that every seed sees restarts inside the window (a
    // restarted server runs without its enforced limit until the next
    // budget epoch, which the auditor reports), short enough that every
    // trace ring stays inside one capacity doubling across seeds, so
    // peak memory does not jump with the seed.
    fc.duration = 60 * sim::kMs;
    fc.seed = seed;
    fc.threads = threads;
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.budget.enabled = true;
    fc.budget.oversubscription = 1.25;
    fc.faults.enabled = true;
    fc.faults.crash.ratePerSec = 2.0;
    fc.faults.crash.mttr = fc.duration / 12;
    fc.recovery.enabled = true;
    fc.health.enabled = health;
    if (attribution) {
        fc.attribution.enabled = true;
        // Room for the whole run, so the spine ring never wraps and
        // drops request chains; memory is committed only as written.
        fc.trace.ringCapacity = std::size_t{1} << 22;
    }
    return fc;
}

FleetRun
runFleet(const fleet::FleetConfig &cfg, SpanLog &log)
{
    FleetRun out;
    const double heap0 = heapInUse();
    std::unique_ptr<fleet::FleetSim> fs;
    const auto t0 = Clock::now();
    {
        SpanLog::Scope sc(log, "FleetSim.ctor");
        fs = std::make_unique<fleet::FleetSim>(cfg);
    }
    const auto t1 = Clock::now();
    {
        SpanLog::Scope sc(log, "FleetSim.run");
        out.rep = fs->run();
    }
    const auto t2 = Clock::now();
    out.setupSec = secondsBetween(t0, t1);
    out.runSec = secondsBetween(t1, t2);
    out.heapBytesPerServer = (heapInUse() - heap0) /
        static_cast<double>(fs->numServers());

    for (std::size_t i = 0; i < fs->numServers(); ++i)
        out.tally.add(fs->server(i));
    using Phase = obs::PhaseProfiler::Phase;
    const obs::PhaseProfiler &prof = fs->profiler();
    out.routeSec = prof.totalSec(Phase::Route);
    out.advanceSec = prof.totalSec(Phase::Advance);
    out.mergeSec = prof.totalSec(Phase::Merge);
    out.imbalance = prof.shardImbalance();
    for (const auto &sp : prof.spans())
        if (sp.phase == Phase::Advance)
            out.advanceSpansUs.push_back(sp.durUs);
    out.digest = fnv1a(reportKey(out.rep));
    {
        SpanLog::Scope sc(log, "FleetSim.dtor");
        fs.reset();
    }
    // Hand the freed heap back so the next repetition's peak resident
    // memory is its own, not this one's leftovers plus its own.
    malloc_trim(0);
    return out;
}

void
checkConservation(const fleet::FleetReport &rep, Checks &checks,
                  const std::string &label)
{
    checks.expect(rep.dispatched == rep.completed + rep.lostRequests +
                          rep.lostToCrash + rep.inFlightAtEnd,
                  label + ": dispatched = completed + lost + lostToCrash "
                          "+ inFlight");
    const auto &f = rep.fabricStats;
    checks.expect(f.enqueued == f.delivered + f.dropped,
                  label + ": fabric enqueued = delivered + dropped");
}

double
timeTraffic(const fleet::FleetConfig &cfg, SpanLog &log,
            std::uint64_t &arrivals)
{
    fleet::TrafficSource src(cfg.traffic, cfg.seed);
    std::vector<fleet::TrafficEvent> scratch;
    const sim::Tick end = cfg.warmup + cfg.duration;
    arrivals = 0;
    double sec = 0.0;
    for (sim::Tick t = 0; t < end; t += cfg.epoch) {
        const auto t0 = Clock::now();
        {
            SpanLog::Scope sc(log, "TrafficSource.epoch");
            src.epoch(t, std::min(t + cfg.epoch, end), scratch);
        }
        sec += secondsBetween(t0, Clock::now());
        arrivals += scratch.size();
    }
    return sec;
}

} // namespace perfbench
