#include "paper_suite.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "analysis/paper_reference.h"
#include "server/server_sim.h"
#include "soc/soc.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace apc;
namespace ref = analysis::paper;

/** Digest input: the headline fields of one result, bit-exact. */
std::string
resultKey(const server::ServerResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%llu|%a|%a|%a|%a|%a|%a|%a|%llu;",
                  static_cast<unsigned long long>(r.requests), r.pkgPowerW,
                  r.dramPowerW, r.avgLatencyUs, r.p99LatencyUs,
                  r.utilization, r.allIdleFraction, r.socWatchIdleFraction,
                  static_cast<unsigned long long>(r.pc1aEntries));
    std::string key = buf;
    for (const double p : r.pkgResidency) {
        std::snprintf(buf, sizeof(buf), "%a,", p);
        key += buf;
    }
    return key;
}

/**
 * Open-loop request stream fed to a ServerSim from outside, drawn from
 * the workload's own arrival and service distributions on an RNG the
 * benchmark owns. Both policies at one load point get the same stream,
 * so their latency and power differences are paired rather than two
 * independent samples (the server's own RNG still picks cores).
 */
class Feeder
{
  public:
    Feeder(const workload::WorkloadConfig &wl, std::uint64_t seed,
           server::ServerSim &s, sim::Tick end)
        : rng_(seed), arrivals_(wl.makeArrivals()),
          service_(wl.makeService()), s_(s), end_(end)
    {
        scheduleNext();
    }

  private:
    void
    scheduleNext()
    {
        const sim::Tick at = s_.sim().now() + arrivals_->nextGap(rng_);
        if (at > end_)
            return;
        s_.sim().at(at, [this] {
            // A positive demand keeps the server from drawing its own.
            s_.inject(server::ServerSim::kNoRequestId,
                      std::max<sim::Tick>(1, service_->sample(rng_)));
            scheduleNext();
        });
    }

    sim::Rng rng_;
    std::unique_ptr<workload::ArrivalProcess> arrivals_;
    std::unique_ptr<workload::ServiceDist> service_;
    server::ServerSim &s_;
    sim::Tick end_;
};

class Runner
{
  public:
    Runner(std::uint64_t seed, SpanLog &log, Checks &checks,
           PaperPass &pass)
        : seed_(seed), log_(log), checks_(checks), pass_(pass)
    {
    }

    /** One standalone server run at load point @p point through the
     *  phased API, timing each call. */
    server::ServerResult
    run(soc::PackagePolicy policy, const workload::WorkloadConfig &wl,
        const std::string &point)
    {
        const bool apc_policy = policy == soc::PackagePolicy::Cpc1a;
        const std::string label =
            point + (apc_policy ? "/C_PC1A" : "/Cshallow");
        server::ServerConfig cfg;
        cfg.policy = policy;
        cfg.workload = wl;
        cfg.externalArrivals = true;
        cfg.duration = std::max(
            kPaperMinWindow,
            sim::fromSeconds(wl.qps > 0 ? kPaperRequests / wl.qps : 0.0));
        cfg.seed = seed_;
        const sim::Tick warmup = cfg.warmup;
        const sim::Tick window = cfg.duration;
        const double heap0 = heapInUse();

        std::unique_ptr<server::ServerSim> s;
        auto t0 = Clock::now();
        {
            SpanLog::Scope sc(log_, "ServerSim.ctor");
            s = std::make_unique<server::ServerSim>(std::move(cfg));
        }
        auto t1 = Clock::now();
        pass_.setupSec += secondsBetween(t0, t1);

        server::ServerResult r;
        std::unique_ptr<Feeder> feed;
        const sim::Tick end = warmup + window;
        {
            SpanLog::Scope sc(log_, "ServerSim.start");
            s->start();
            server::ServerSim *raw = s.get();
            s->sim().at(warmup, [raw] { raw->beginMeasurement(); });
        }
        if (wl.qps > 0)
            feed = std::make_unique<Feeder>(wl, fnv1a(point, seed_), *s,
                                            end);
        const auto t2 = Clock::now();
        {
            SpanLog::Scope sc(log_, "ServerSim.advanceTo");
            s->advanceTo(end);
        }
        const auto t3 = Clock::now();
        {
            SpanLog::Scope sc(log_, "ServerSim.collect");
            r = s->collect();
        }
        const auto t4 = Clock::now();
        pass_.runSec += secondsBetween(t1, t4);
        pass_.advanceSec += secondsBetween(t2, t3);
        heapSum_ += heapInUse() - heap0;

        pass_.tally.add(*s);
        pass_.digest = fnv1a(resultKey(r), pass_.digest);
        if (apc_policy && wl.qps > 0) {
            pass_.pc1aEntries += r.pc1aEntries;
            pass_.pc1aRequests += r.requests;
        }
        sanity(*s, r, apc_policy, wl.qps > 0, label);
        {
            SpanLog::Scope sc(log_, "ServerSim.dtor");
            s.reset();
        }
        return r;
    }

    double heapSum() const { return heapSum_; }

  private:
    void
    sanity(const server::ServerSim &s, const server::ServerResult &r,
           bool apc_policy, bool loaded, const std::string &label)
    {
        double pkg = 0.0, core = 0.0;
        for (const double v : r.pkgResidency)
            pkg += v;
        for (const double v : r.coreResidency)
            core += v;
        checks_.expect(std::fabs(pkg - 1.0) < 1e-6,
                       label + ": package residencies sum to 1");
        checks_.expect(std::fabs(core - 1.0) < 1e-6,
                       label + ": core residencies sum to 1");
        checks_.expect(s.aborted() == 0, label + ": no request aborted");
        checks_.expect(loaded == (r.requests > 0),
                       label + ": requests served iff load offered");
        checks_.expect(apc_policy == (r.pc1aEntries > 0),
                       label + ": PC1A entered iff C_PC1A policy");
    }

    std::uint64_t seed_;
    SpanLog &log_;
    Checks &checks_;
    PaperPass &pass_;
    double heapSum_ = 0.0;
};

double
savings(const server::ServerResult &sh, const server::ServerResult &apc)
{
    return 1.0 - apc.totalPowerW() / sh.totalPowerW();
}

} // namespace

PaperPass
runPaperPass(std::uint64_t seed, SpanLog &log, Checks &checks)
{
    using soc::PackagePolicy;
    using workload::WorkloadConfig;
    PaperPass pass;
    Runner run(seed, log, checks, pass);
    auto &claims = pass.claims;
    const auto point = [&](const char *name, double paper, double sim) {
        claims.push_back({name, ClaimKind::Point, paper, paper, false, sim});
    };
    const auto range = [&](const std::string &name, double lo, double hi,
                           bool held_out, double sim) {
        claims.push_back({name, ClaimKind::Range, lo, hi, held_out, sim});
    };

    // Figs. 6 and 7: memcached ETC sweep, Cshallow vs C_PC1A.
    struct Qps
    {
        double qps;
        const char *tag;
    };
    const Qps sweep[] = {{4e3, "4k"},   {10e3, "10k"}, {25e3, "25k"},
                         {50e3, "50k"}, {75e3, "75k"}, {100e3, "100k"}};
    double sav_sum = 0.0;
    for (const Qps &q : sweep) {
        const auto wl = WorkloadConfig::memcachedEtc(q.qps);
        const std::string tag = std::string("memcached_") + q.tag;
        const auto sh = run.run(PackagePolicy::Cshallow, wl, tag);
        const auto apc = run.run(PackagePolicy::Cpc1a, wl, tag);
        const double sav = savings(sh, apc);
        sav_sum += sav;
        pass.latImpactByLoad.push_back(
            (apc.avgLatencyUs - sh.avgLatencyUs) / sh.avgLatencyUs);
        pass.latImpact = std::max(pass.latImpact,
                                  pass.latImpactByLoad.back());
        if (q.qps == 4e3) {
            point("fig6b_res_4k", ref::kPc1aResidencyAt4k,
                  sh.socWatchIdleFraction);
            point("fig6c_idle_20_200us", ref::kIdlePeriods20to200usLowLoad,
                  sh.idlePeriodFraction(20.0, 200.0));
            point("fig7_sav_4k", ref::kPowerSavingsAt4k, sav);
        } else if (q.qps == 50e3) {
            point("fig6b_res_50k", ref::kPc1aResidencyAt50k,
                  sh.socWatchIdleFraction);
            point("fig7_sav_50k", ref::kPowerSavingsAt50k, sav);
        } else if (q.qps == 100e3) {
            claims.push_back({"fig6b_res_100k", ClaimKind::AtLeast,
                              ref::kPc1aResidencyFloorAt100k, 1.0, false,
                              sh.socWatchIdleFraction});
        }
    }
    point("fig7_avg_sav", ref::kMemcachedAvgEnergySavings,
          sav_sum / static_cast<double>(std::size(sweep)));
    claims.push_back({"fig7c_lat_impact", ClaimKind::AtMost, 0.0,
                      ref::kMaxAvgLatencyImpact, false, pass.latImpact});

    // Fig. 7(a): the fully idle server.
    const auto idle = WorkloadConfig::memcachedEtc(0);
    const auto idle_sh = run.run(PackagePolicy::Cshallow, idle, "idle");
    const auto idle_apc = run.run(PackagePolicy::Cpc1a, idle, "idle");
    point("fig7a_idle_sav", ref::kIdleSavings, savings(idle_sh, idle_apc));

    // Figs. 8 and 9: MySQL OLTP and Kafka at the paper's utilizations.
    struct Load
    {
        double util;
        const char *tag;
    };
    const Load mysql[] = {{0.08, "low"}, {0.16, "mid"}, {0.42, "high"}};
    for (const Load &l : mysql) {
        const double qps =
            WorkloadConfig::mysqlOltp(0).qpsForUtilization(l.util, 10);
        const auto wl = WorkloadConfig::mysqlOltp(qps);
        const std::string tag = std::string("mysql_") + l.tag;
        const auto sh = run.run(PackagePolicy::Cshallow, wl, tag);
        const auto apc = run.run(PackagePolicy::Cpc1a, wl, tag);
        range(std::string("fig8_idle_") + l.tag, ref::kMysqlIdleResidencyLo,
              ref::kMysqlIdleResidencyHi, false, sh.allIdleFraction);
        range(std::string("fig8_sav_") + l.tag, ref::kMysqlSavingsLo,
              ref::kMysqlSavingsHi, false, savings(sh, apc));
    }
    const Load kafka[] = {{0.08, "low"}, {0.16, "high"}};
    for (const Load &l : kafka) {
        const double qps =
            WorkloadConfig::kafka(0).qpsForUtilization(l.util, 10);
        const auto wl = WorkloadConfig::kafka(qps);
        const std::string tag = std::string("kafka_") + l.tag;
        const auto sh = run.run(PackagePolicy::Cshallow, wl, tag);
        const auto apc = run.run(PackagePolicy::Cpc1a, wl, tag);
        range(std::string("fig9_res_") + l.tag, ref::kKafkaResidencyLo,
              ref::kKafkaResidencyHi, true, apc.pc1aResidency());
        range(std::string("fig9_sav_") + l.tag, ref::kKafkaSavingsLo,
              ref::kKafkaSavingsHi, true, savings(sh, apc));
    }
    pass.heapBytesPerServer =
        ratio(run.heapSum(), static_cast<double>(pass.tally.servers));
    return pass;
}

double
meanErrPp(const std::vector<Claim> &claims, bool held_out)
{
    double sum = 0.0;
    int n = 0;
    for (const Claim &c : claims)
        if (c.heldOut == held_out) {
            sum += c.errPp();
            ++n;
        }
    return ratio(sum, n);
}

void
printClaimTable(const PaperPass &pass)
{
    std::printf("Paper claims (values in %%; error in percentage points)\n");
    std::printf("  %-22s %10s %18s %10s\n", "claim", "sim", "paper", "error");
    for (const Claim &c : pass.claims) {
        char paper[40];
        switch (c.kind) {
        case ClaimKind::Point:
            std::snprintf(paper, sizeof(paper), "%.1f", 100 * c.lo);
            break;
        case ClaimKind::Range:
            std::snprintf(paper, sizeof(paper), "%.1f-%.1f", 100 * c.lo,
                          100 * c.hi);
            break;
        case ClaimKind::AtLeast:
            std::snprintf(paper, sizeof(paper), ">=%.1f", 100 * c.lo);
            break;
        case ClaimKind::AtMost:
            std::snprintf(paper, sizeof(paper), "<=%.1f", 100 * c.hi);
            break;
        }
        std::printf("  %-22s %10.3f %18s %10.3f%s\n", c.name.c_str(),
                    100 * c.sim, paper, c.errPp(),
                    c.heldOut ? "  (held out)" : "");
    }
    std::printf("C_PC1A average-latency increase over Cshallow (%%), "
                "4K..100K QPS:");
    for (const double x : pass.latImpactByLoad)
        std::printf(" %.4f", 100 * x);
    std::printf("\n");
}

} // namespace perfbench
