/**
 * @file
 * Reproduces **Fig. 8**: MySQL (sysbench OLTP) at low/mid/high request
 * rates (8% / 16% / 42% processor load): (a) C-state + PC1A residency
 * of Cshallow vs CPC1A, (b) average power reduction (paper: 7–14%,
 * 41% when fully idle).
 */

#include "bench_common.h"

using namespace apc;

int
main()
{
    bench::banner("Fig. 8: MySQL (OLTP) residency & power reduction");
    using analysis::TablePrinter;
    namespace ref = analysis::paper;

    const auto base_wl = workload::WorkloadConfig::mysqlOltp(0);
    struct Point
    {
        const char *name;
        double util;
        double paperSavings;
    };
    const Point points[] = {{"low (8%)", 0.08, ref::kMysqlSavingsHi},
                            {"mid (16%)", 0.16, ref::kMysqlSavingsMid},
                            {"high (42%)", 0.42, ref::kMysqlSavingsLo}};

    TablePrinter t("Fig. 8 — MySQL");
    t.header({"Load", "QPS", "util (sim)", "CC0", "CC1",
              "all-idle (paper " +
                  TablePrinter::num(ref::kMysqlIdleResidencyLo * 100, 0) +
                  "-" +
                  TablePrinter::percent(ref::kMysqlIdleResidencyHi, 0) +
                  ")",
              "PC1A res.", "Savings", "paper"});
    for (const auto &p : points) {
        const double qps = base_wl.qpsForUtilization(p.util, 10);
        const auto wl = workload::WorkloadConfig::mysqlOltp(qps);
        const auto sh =
            bench::runServer(soc::PackagePolicy::Cshallow, wl);
        const auto apc = bench::runServer(soc::PackagePolicy::Cpc1a, wl);
        const double savings =
            1.0 - apc.totalPowerW() / sh.totalPowerW();
        t.row({p.name, TablePrinter::num(qps, 0),
               TablePrinter::percent(sh.utilization),
               TablePrinter::percent(sh.coreResidency[0]),
               TablePrinter::percent(sh.coreResidency[1]),
               TablePrinter::percent(sh.allIdleFraction),
               TablePrinter::percent(apc.pc1aResidency()),
               TablePrinter::percent(savings),
               "~" + TablePrinter::percent(p.paperSavings, 0)});
    }
    t.print();

    const auto idle_sh = bench::runIdle(soc::PackagePolicy::Cshallow);
    const auto idle_apc = bench::runIdle(soc::PackagePolicy::Cpc1a);
    std::printf("\nFully idle server reduction: %s (paper: %s)\n",
                TablePrinter::percent(1.0 - idle_apc.totalPowerW() /
                                      idle_sh.totalPowerW()).c_str(),
                TablePrinter::percent(ref::kIdleSavings, 0).c_str());
    return 0;
}
