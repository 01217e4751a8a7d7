/**
 * @file
 * The repository benchmark program. One invocation runs one workload:
 *
 *   apc_perfbench --workload fleet_sparse|fleet_stack|paper_server
 *                 --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * With --trace 0 it repeats the workload for S host seconds and prints
 * the end-to-end metrics; with --trace 1 it alternates untraced and
 * traced repetitions for S seconds, prints the per-layer metrics and
 * writes the traced spans to PATH. Either way it checks the simulated
 * outputs (conservation, repeat determinism, thread-count and observer
 * invariance, result sanity) and prints one JSON result as the last
 * line of stdout. Exit status is non-zero on any hard check failure.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fleet_workloads.h"
#include "metric_math.h"
#include "paper_suite.h"
#include "report.h"
#include "span_log.h"

namespace perfbench {
namespace {

/** Repetitions a run makes even when one outlasts --seconds. */
constexpr int kMinReps = 3;

/**
 * Worker threads of the timed fleet_stack runs. Two threads varied
 * 49K-91K requests/s across seeds on a shared 4-vCPU host (a stalled
 * worker holds every epoch's barrier); one thread held within 7%. The
 * untimed invariance check still runs the two-thread pool.
 */
constexpr unsigned kStackThreads = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end)
                return false;
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0 ? 1
                : std::strcmp(v, "0") == 0     ? 0
                                               : -1;
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
        a.trace >= 0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Repeat @p body until @p seconds have passed and at least @p min_reps
 *  repetitions ran. */
template <typename Body>
void
repeatFor(double seconds, int min_reps, Body &&body)
{
    const auto t0 = Clock::now();
    for (int n = 0;
         n < min_reps || secondsBetween(t0, Clock::now()) < seconds; ++n)
        body(n);
}

void
printRep(int n, double setup_sec, double run_sec, double req_per_s)
{
    std::printf("rep %d: setup %.6f s, run %.6f s, %.0f req/s\n", n,
                setup_sec, run_sec, req_per_s);
}

void
setPaperMetrics(const PaperPass &p, Metrics &m)
{
    m.set("paper_err_pp", meanErrPp(p.claims, false), "pp");
    m.set("heldout_err_pp", meanErrPp(p.claims, true), "pp");
    m.set("lat_impact_pct", 100.0 * p.latImpact, "%");
}

void
setClaimMetrics(const PaperPass &p, Metrics &m)
{
    for (const Claim &c : p.claims)
        m.set("paper." + c.name + "_err_pp", c.errPp(), "pp");
}

/** Engine counters shared by every workload's per-layer block. */
void
setSimMetrics(const EngineTally &t, double advance_sec, Metrics &m)
{
    const auto req = static_cast<double>(t.requests);
    const auto executed = static_cast<double>(t.executed);
    const auto scheduled = static_cast<double>(t.scheduled);
    m.set("sim.events_per_req", ratio(executed, req), "1/req");
    m.set("sim.sched_per_req", ratio(scheduled, req), "1/req");
    m.set("sim.fire_ratio", ratio(executed, scheduled), "ratio");
    m.set("sim.heap_share",
          ratio(static_cast<double>(t.heapScheduled), scheduled), "ratio");
    m.set("sim.pool_records_per_server",
          ratio(static_cast<double>(t.poolRecords),
                static_cast<double>(t.servers)),
          "count");
    m.set("sim.ns_per_event", ratio(1e9 * advance_sec, executed), "ns");
}

/** The per-layer metrics every workload prints, declared at 0 so a
 *  layer a workload never calls reads 0 rather than going missing. */
constexpr std::pair<const char *, const char *> kLayerMetrics[] = {
    {"fleet.route_s", "s"},
    {"fleet.advance_s", "s"},
    {"fleet.merge_s", "s"},
    {"fleet.other_s", "s"},
    {"fleet.advance_epoch_p50_us", "us"},
    {"fleet.advance_epoch_tail_us", "us"},
    {"fleet.advance_epoch_tail_pctl", "%"},
    {"fleet.advance_epoch_samples", "count"},
    {"fleet.shard_imbalance", "ratio"},
    {"workload.ns_per_arrival", "ns"},
    {"net.retx_per_req", "1/req"},
    {"net.link_delivery_ratio", "ratio"},
    {"net.pkts_per_irq", "count"},
    {"fault.failovers", "count"},
    {"fault.lost_to_crash", "count"},
    {"fault.failover_success_ratio", "ratio"},
    {"cap.violation_rate", "ratio"},
    {"cap.throttle_residency", "ratio"},
    {"obs.audit_checks", "count"},
    {"obs.audit_violations", "count"},
    {"obs.trace_records_per_req", "1/req"},
    {"obs.trace_drops", "count"},
    {"obs.audit_s", "s"},
    {"obs.attribution_s", "s"},
};

void
declareLayerMetrics(Metrics &m)
{
    for (const auto &[name, unit] : kLayerMetrics)
        m.set(name, 0.0, unit);
}

/** Names of the spans the benchmark records, for the self-time block. */
constexpr const char *kSpanNames[] = {
    "bench.rep",         "bench.paper_pass",    "FleetSim.ctor",
    "FleetSim.run",      "FleetSim.dtor",       "TrafficSource.epoch",
    "ServerSim.ctor",    "ServerSim.start",     "ServerSim.advanceTo",
    "ServerSim.collect", "ServerSim.dtor",
};

/** Mean self time per call of each span name. */
void
setSelfTimeMetrics(const SpanLog &log, Metrics &m)
{
    const auto &spans = log.spans();
    const std::vector<double> self = selfTimes(spans);
    for (const char *name : kSpanNames) {
        double sum = 0.0;
        int n = 0;
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].name == name) {
                sum += self[i];
                ++n;
            }
        m.set(std::string("self.") + name + "_s", ratio(sum, n), "s");
    }
}

void
reportAudit(const apc::fleet::FleetReport &rep)
{
    const auto &h = rep.health;
    if (!h.enabled)
        return;
    std::printf("Audit: %llu violations in %llu checks\n",
                static_cast<unsigned long long>(h.auditViolations),
                static_cast<unsigned long long>(h.auditChecks));
    if (!h.auditLog.empty())
        std::printf("  first: %s\n", h.auditLog.front().detail.c_str());
}

// ---- fleet workloads ------------------------------------------------------

class FleetWorkload
{
  public:
    FleetWorkload(const Args &a, Checks &checks)
        : args_(a), checks_(checks), stack_(a.workload == "fleet_stack"),
          cfg_(stack_ ? stackConfig(a.seed, kStackThreads, true, true)
                      : sparseConfig(a.seed))
    {
    }

    void
    endToEnd(Metrics &m)
    {
        SpanLog off(false);
        std::vector<double> setups, rates;
        FleetRun last;
        repeatFor(args_.seconds, kMinReps, [&](int n) {
            last = runFleet(cfg_, off);
            check(last, n);
            setups.push_back(last.setupSec);
            rates.push_back(ratio(static_cast<double>(last.tally.requests),
                                  last.runSec));
            printRep(n, last.setupSec, last.runSec, rates.back());
        });
        const double peak = peakRssMb();
        settleRepeats();
        reportAudit(last.rep);
        if (stack_)
            checkInvariance();
        const PaperPass paper = runPaperPass(args_.seed, off, checks_);
        printClaimTable(paper);

        m.set("sim_req_per_s", median(rates), "1/s");
        m.set("setup_s", median(setups), "s");
        m.set("peak_rss_mb", peak, "MB");
        setPaperMetrics(paper, m);
    }

    void
    perLayer(Metrics &m, SpanLog &log)
    {
        SpanLog off(false);
        std::vector<double> untraced, traced, advance_us, run_sec;
        FleetRun last;
        int reps = 0;
        repeatFor(args_.seconds, 2, [&](int) {
            auto t0 = Clock::now();
            const FleetRun plain = runFleet(cfg_, off);
            untraced.push_back(secondsBetween(t0, Clock::now()));
            run_sec.push_back(plain.runSec);
            check(plain, reps++);
            t0 = Clock::now();
            {
                SpanLog::Scope sc(log, "bench.rep");
                last = runFleet(cfg_, log);
            }
            traced.push_back(secondsBetween(t0, Clock::now()));
            check(last, reps++);
            advance_us.insert(advance_us.end(), last.advanceSpansUs.begin(),
                              last.advanceSpansUs.end());
        });
        settleRepeats();
        reportAudit(last.rep);

        const auto &rep = last.rep;
        declareLayerMetrics(m);
        setSimMetrics(last.tally, last.advanceSec, m);
        std::uint64_t entries = 0, measured = 0;
        for (const auto &s : rep.perServer) {
            entries += s.pc1aEntries;
            measured += s.requests;
        }
        const auto req = static_cast<double>(last.tally.requests);
        m.set("server.pc1a_entries_per_req",
              ratio(static_cast<double>(entries),
                    static_cast<double>(measured)),
              "1/req");
        m.set("server.bytes_per_server", last.heapBytesPerServer, "B");
        m.set("fleet.route_s", last.routeSec);
        m.set("fleet.advance_s", last.advanceSec);
        m.set("fleet.merge_s", last.mergeSec);
        m.set("fleet.other_s",
              last.runSec - last.routeSec - last.advanceSec - last.mergeSec);
        const Percentile tail = tailPercentile(advance_us.size());
        m.set("fleet.advance_epoch_p50_us",
              percentileOf(advance_us, {1, 2}));
        m.set("fleet.advance_epoch_tail_us",
              percentileOf(advance_us, tail));
        m.set("fleet.advance_epoch_tail_pctl", tail.percent());
        m.set("fleet.advance_epoch_samples",
              static_cast<double>(advance_us.size()));
        m.set("fleet.shard_imbalance", last.imbalance);

        std::uint64_t arrivals = 0;
        const double traffic_sec = timeTraffic(cfg_, log, arrivals);
        m.set("workload.ns_per_arrival",
              ratio(1e9 * traffic_sec, static_cast<double>(arrivals)));

        const auto &f = rep.fabricStats;
        m.set("net.retx_per_req",
              ratio(static_cast<double>(rep.netRetransmits), req));
        m.set("net.link_delivery_ratio",
              ratio(static_cast<double>(f.delivered),
                    static_cast<double>(f.enqueued)));
        m.set("net.pkts_per_irq", rep.nicPktsPerIrq.mean());
        m.set("fault.failovers", static_cast<double>(rep.failovers));
        m.set("fault.lost_to_crash", static_cast<double>(rep.lostToCrash));
        m.set("fault.failover_success_ratio",
              ratio(static_cast<double>(rep.failovers),
                    static_cast<double>(rep.failovers + rep.lostToCrash)));
        m.set("cap.violation_rate", rep.capViolationRate());
        m.set("cap.throttle_residency", rep.capThrottleResidency);
        m.set("obs.audit_checks",
              static_cast<double>(rep.health.auditChecks));
        m.set("obs.audit_violations",
              static_cast<double>(rep.health.auditViolations));
        m.set("obs.trace_records_per_req",
              ratio(static_cast<double>(rep.traceRecords), req));
        m.set("obs.trace_drops", static_cast<double>(rep.traceDrops));
        if (stack_) {
            // Differential: the same run with one observer removed.
            const double full = median(run_sec);
            const FleetRun no_health = runFleet(
                stackConfig(args_.seed, kStackThreads, false, true), off);
            const FleetRun no_attr = runFleet(
                stackConfig(args_.seed, kStackThreads, true, false), off);
            checks_.expect(no_health.digest == digest_ &&
                               no_attr.digest == digest_,
                           "fleet_stack: digest independent of observers");
            m.set("obs.audit_s", full - no_health.runSec);
            m.set("obs.attribution_s", full - no_attr.runSec);
        }
        m.set("trace.overhead_pct",
              100.0 * (ratio(median(traced), median(untraced)) - 1.0), "%");

        PaperPass paper;
        {
            SpanLog::Scope sc(log, "bench.paper_pass");
            paper = runPaperPass(args_.seed, log, checks_);
        }
        setClaimMetrics(paper, m);
    }

  private:
    /** Per-repetition checks. The first repetition's conservation
     *  and audit tally are counted; every later one must pass the same
     *  conservation checks and reproduce the first one's digest and
     *  audit tally. */
    void
    check(const FleetRun &r, int n)
    {
        const auto &h = r.rep.health;
        if (n == 0) {
            digest_ = r.digest;
            audit_ = {h.auditChecks, h.auditViolations};
            checkConservation(r.rep, checks_, args_.workload);
            checks_.countAudit(h.auditChecks, h.auditViolations);
            return;
        }
        Checks &again = repeats_.scratch;
        checkConservation(r.rep, again, args_.workload + " repeat");
        again.expect(r.digest == digest_ &&
                         audit_ == std::make_pair(h.auditChecks,
                                                  h.auditViolations),
                     args_.workload +
                         ": repeated run, same digest and audit tally");
    }

    void
    settleRepeats()
    {
        repeats_.settle(checks_, args_.workload +
                            ": every repetition reproduces the first");
    }

    /** Untimed: one thread equals two, and observers change nothing
     *  (the timed runs ran with observers on). */
    void
    checkInvariance()
    {
        SpanLog off(false);
        const FleetRun one = runFleet(stackConfig(args_.seed, 1, false,
                                                  false), off);
        const FleetRun two = runFleet(stackConfig(args_.seed, 2, false,
                                                  false), off);
        checkConservation(one.rep, checks_, "fleet_stack 1 thread");
        checkConservation(two.rep, checks_, "fleet_stack 2 threads");
        checks_.expect(one.digest == two.digest,
                       "fleet_stack: 1-thread digest = 2-thread digest");
        checks_.expect(digest_ == one.digest,
                       "fleet_stack: obs-on digest = obs-off digest");
    }

    const Args &args_;
    Checks &checks_;
    bool stack_;
    apc::fleet::FleetConfig cfg_;
    /** The first repetition's digest and audit checks, violations. */
    std::uint64_t digest_ = 0;
    std::pair<std::uint64_t, std::uint64_t> audit_;
    RepeatChecks repeats_;
};

// ---- paper_server -----------------------------------------------------------

void
paperEndToEnd(const Args &a, Checks &checks, Metrics &m)
{
    SpanLog off(false);
    std::vector<double> setups, rates;
    PaperPass first;
    RepeatChecks repeats;
    repeatFor(a.seconds, kMinReps, [&](int n) {
        PaperPass p =
            runPaperPass(a.seed, off, n == 0 ? checks : repeats.scratch);
        setups.push_back(p.setupSec);
        rates.push_back(
            ratio(static_cast<double>(p.tally.requests), p.runSec));
        printRep(n, p.setupSec, p.runSec, rates.back());
        if (n == 0)
            first = std::move(p);
        else
            repeats.scratch.expect(p.digest == first.digest,
                                   "paper_server: repeated pass, same digest");
    });
    const double peak = peakRssMb();
    repeats.settle(checks, "paper_server: every repetition reproduces the "
                           "first");
    printClaimTable(first);
    m.set("sim_req_per_s", median(rates), "1/s");
    m.set("setup_s", median(setups), "s");
    m.set("peak_rss_mb", peak, "MB");
    setPaperMetrics(first, m);
}

void
paperPerLayer(const Args &a, Checks &checks, Metrics &m, SpanLog &log)
{
    SpanLog off(false);
    std::vector<double> untraced, traced;
    PaperPass last;
    std::uint64_t digest = 0;
    RepeatChecks repeats;
    repeatFor(a.seconds, 2, [&](int n) {
        auto t0 = Clock::now();
        const PaperPass plain =
            runPaperPass(a.seed, off, n == 0 ? checks : repeats.scratch);
        untraced.push_back(secondsBetween(t0, Clock::now()));
        t0 = Clock::now();
        {
            SpanLog::Scope sc(log, "bench.paper_pass");
            last = runPaperPass(a.seed, log, repeats.scratch);
        }
        traced.push_back(secondsBetween(t0, Clock::now()));
        if (n == 0)
            digest = plain.digest;
        repeats.scratch.expect(plain.digest == digest &&
                                   last.digest == digest,
                               "paper_server: repeated pass, same digest");
    });
    repeats.settle(checks, "paper_server: every repetition reproduces the "
                           "first");
    printClaimTable(last);
    declareLayerMetrics(m);
    setSimMetrics(last.tally, last.advanceSec, m);
    m.set("server.pc1a_entries_per_req",
          ratio(static_cast<double>(last.pc1aEntries),
                static_cast<double>(last.pc1aRequests)),
          "1/req");
    m.set("server.bytes_per_server", last.heapBytesPerServer, "B");
    m.set("trace.overhead_pct",
          100.0 * (ratio(median(traced), median(untraced)) - 1.0), "%");
    setClaimMetrics(last, m);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--spans PATH]\n",
                     argv[0]);
        return 2;
    }
    const bool fleet =
        a.workload == "fleet_sparse" || a.workload == "fleet_stack";
    if (!fleet && a.workload != "paper_server") {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }

    Checks checks;
    Metrics m;
    SpanLog log(a.trace == 1);
    if (fleet) {
        FleetWorkload w(a, checks);
        if (a.trace)
            w.perLayer(m, log);
        else
            w.endToEnd(m);
    } else if (a.trace) {
        paperPerLayer(a, checks, m, log);
    } else {
        paperEndToEnd(a, checks, m);
    }
    if (a.trace) {
        setSelfTimeMetrics(log, m);
        if (!a.spans.empty() && !log.writeJson(a.spans))
            checks.expect(false, "write spans to " + a.spans);
    }

    const bool correct = !checks.hardFailure && m.valid();
    std::printf("%s metrics (%s, seed %llu):\n", a.workload.c_str(),
                a.trace ? "per layer" : "end to end",
                static_cast<unsigned long long>(a.seed));
    m.printTable();
    m.printJson(correct, checks);
    return correct ? 0 : 1;
}
