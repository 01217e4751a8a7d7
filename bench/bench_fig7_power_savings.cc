/**
 * @file
 * Reproduces **Fig. 7**: APC's Memcached power savings and performance
 * impact —
 *   (a) idle SoC+DRAM power for Cshallow / CPC1A / Cdeep,
 *   (b) power and savings vs request rate (CPC1A vs Cshallow),
 *   (c) average-latency impact vs request rate (<0.1%).
 * Also prints the Sec. 1 headline: up to 41% energy savings, ~25% on
 * average over the low-load operating range.
 */

#include "bench_common.h"

using namespace apc;

int
main()
{
    bench::banner("Fig. 7: PC1A power savings & performance impact");
    using analysis::TablePrinter;
    namespace ref = analysis::paper;

    // (a) Idle power.
    const auto idle_sh = bench::runIdle(soc::PackagePolicy::Cshallow);
    const auto idle_apc = bench::runIdle(soc::PackagePolicy::Cpc1a);
    const auto idle_dp = bench::runIdle(soc::PackagePolicy::Cdeep);

    TablePrinter a("Fig. 7(a) — idle SoC+DRAM power");
    a.header({"Config", "Power (sim)", "Power (paper)"});
    a.row({"Cshallow", TablePrinter::watts(idle_sh.totalPowerW()),
           TablePrinter::watts(ref::kPc0idleSocW + ref::kPc0idleDramW)});
    a.row({"C_PC1A", TablePrinter::watts(idle_apc.totalPowerW()),
           TablePrinter::watts(ref::kPc1aSocW + ref::kPc1aDramW)});
    a.row({"Cdeep", TablePrinter::watts(idle_dp.totalPowerW()),
           TablePrinter::watts(ref::kPc6SocW + ref::kPc6DramW)});
    a.print();
    std::printf("Idle reduction C_PC1A vs Cshallow: %s (paper: %s)\n",
                TablePrinter::percent(1.0 - idle_apc.totalPowerW() /
                                      idle_sh.totalPowerW()).c_str(),
                TablePrinter::percent(ref::kIdleSavings, 0).c_str());

    // (b)+(c) Load sweep.
    const double qps_points[] = {4e3, 10e3, 25e3, 50e3, 75e3, 100e3};
    TablePrinter b("Fig. 7(b,c) — power & latency vs load");
    b.header({"QPS", "Cshallow W", "C_PC1A W", "Savings", "paper",
              "lat Cshallow us", "lat C_PC1A us", "impact"});
    double savings_sum = 0;
    int n = 0;
    for (const double qps : qps_points) {
        const auto wl = workload::WorkloadConfig::memcachedEtc(qps);
        const auto sh =
            bench::runServer(soc::PackagePolicy::Cshallow, wl);
        const auto apc = bench::runServer(soc::PackagePolicy::Cpc1a, wl);
        const double savings =
            1.0 - apc.totalPowerW() / sh.totalPowerW();
        const double impact =
            (apc.avgLatencyUs - sh.avgLatencyUs) / sh.avgLatencyUs;
        savings_sum += savings;
        ++n;
        std::string paper = "-";
        if (qps == 4e3)
            paper = TablePrinter::percent(ref::kPowerSavingsAt4k, 0);
        else if (qps == 50e3)
            paper = TablePrinter::percent(ref::kPowerSavingsAt50k, 0);
        b.row({TablePrinter::num(qps / 1000, 0) + "K",
               TablePrinter::num(sh.totalPowerW()),
               TablePrinter::num(apc.totalPowerW()),
               TablePrinter::percent(savings), paper,
               TablePrinter::num(sh.avgLatencyUs, 2),
               TablePrinter::num(apc.avgLatencyUs, 2),
               TablePrinter::percent(impact, 3)});
    }
    b.print();
    std::printf(
        "\nAverage savings over the low-load range: %s "
        "(paper: ~%s avg, up to %s); paper bound on latency impact: <%s\n",
        TablePrinter::percent(savings_sum / n).c_str(),
        TablePrinter::percent(ref::kMemcachedAvgEnergySavings, 0).c_str(),
        TablePrinter::percent(ref::kMemcachedMaxEnergySavings, 0).c_str(),
        TablePrinter::percent(ref::kMaxAvgLatencyImpact, 1).c_str());
    return 0;
}
