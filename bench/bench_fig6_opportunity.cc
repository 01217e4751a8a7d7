/**
 * @file
 * Reproduces **Fig. 6**: the PC1A opportunity for Memcached on the
 * Cshallow baseline —
 *   (a) per-core CC0/CC1 residency vs request rate,
 *   (b) PC1A residency (all cores simultaneously in CC1, measured with
 *       the SoCWatch 10 µs floor) vs request rate,
 *   (c) the distribution of fully-idle period lengths at low load.
 */

#include "bench_common.h"

using namespace apc;

int
main()
{
    bench::banner("Fig. 6: PC1A opportunity (Memcached, Cshallow)");
    using analysis::TablePrinter;
    namespace ref = analysis::paper;

    const double qps_points[] = {4e3, 10e3, 25e3, 50e3, 75e3, 100e3};

    TablePrinter a("Fig. 6(a,b) — residency vs load (Cshallow)");
    a.header({"QPS", "CC0 (util)", "CC1", "all-idle", "PC1A opp. "
              "(SoCWatch >=10us)", "paper"});
    std::vector<server::ServerResult> runs;
    for (const double qps : qps_points) {
        const auto wl = workload::WorkloadConfig::memcachedEtc(qps);
        auto r = bench::runServer(soc::PackagePolicy::Cshallow, wl);
        std::string paper = "-";
        if (qps == 4e3)
            paper = TablePrinter::percent(ref::kPc1aResidencyAt4k, 0);
        else if (qps == 50e3)
            paper = TablePrinter::percent(ref::kPc1aResidencyAt50k, 0);
        else if (qps == 100e3)
            paper = ">=" + TablePrinter::percent(
                               ref::kPc1aResidencyFloorAt100k, 0);
        a.row({TablePrinter::num(qps / 1000, 0) + "K",
               TablePrinter::percent(r.utilization),
               TablePrinter::percent(r.coreResidency[1]),
               TablePrinter::percent(r.allIdleFraction),
               TablePrinter::percent(r.socWatchIdleFraction), paper});
        runs.push_back(std::move(r));
    }
    a.print();

    // Fig. 6(c): idle-period length distribution at low load.
    const auto &low = runs.front();
    TablePrinter c("Fig. 6(c) — fully-idle period lengths at 4K QPS");
    c.header({"Bucket", "Fraction", "Paper"});
    c.row({"< 10 us", TablePrinter::percent(
                          low.idlePeriodFraction(0.001, 10.0)), "-"});
    c.row({"10-20 us", TablePrinter::percent(
                           low.idlePeriodFraction(10.0, 20.0)), "-"});
    c.row({"20-200 us", TablePrinter::percent(
                            low.idlePeriodFraction(20.0, 200.0)),
           "~" + TablePrinter::percent(
                     ref::kIdlePeriods20to200usLowLoad, 0)});
    c.row({"200us-1ms", TablePrinter::percent(
                            low.idlePeriodFraction(200.0, 1000.0)), "-"});
    c.row({"> 1 ms", TablePrinter::percent(
                         low.idlePeriodFraction(1000.0, 1e9)), "-"});
    c.print();
    std::printf("\nPC1A transition (<=%.0fns) is ~100x shorter than the "
                "dominant idle-period bucket; PC6 (>%.0fus) is not.\n",
                ref::kPc1aTotalNs, ref::kPc6TotalUs);
    return 0;
}
