/**
 * @file
 * SoC composition tests: package-state bookkeeping, the fabric wake
 * path, statistics reset, and configuration scaling (parameterized over
 * core counts — the model must compose for other SKUs, not just the
 * 10-core Xeon Silver 4114).
 */

#include <gtest/gtest.h>

#include "soc/soc.h"

namespace apc::soc {
namespace {

using sim::kMs;
using sim::kUs;

TEST(Soc, TopologyMatchesXeonSilver4114)
{
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cshallow);
    Soc soc(s, cfg, PackagePolicy::Cshallow);
    EXPECT_EQ(soc.numCores(), 10u);
    EXPECT_EQ(soc.numLinks(), 6u); // 3 PCIe + DMI + 2 UPI
    EXPECT_EQ(soc.numMcs(), 2u);
    EXPECT_EQ(soc.plls().size(), 8u);
    EXPECT_EQ(&soc.nic(), &soc.link(0));
}

TEST(Soc, PkgStateFollowsCoreActivity)
{
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cshallow);
    Soc soc(s, cfg, PackagePolicy::Cshallow);
    EXPECT_EQ(soc.pkgState(), PkgState::Pc0);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(10 * kUs);
    EXPECT_EQ(soc.pkgState(), PkgState::Pc0idle);
    soc.core(3).requestWake(nullptr);
    s.runAll();
    EXPECT_EQ(soc.pkgState(), PkgState::Pc0);
}

TEST(Soc, FabricAlwaysReadyUnderShallowPolicy)
{
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cshallow);
    Soc soc(s, cfg, PackagePolicy::Cshallow);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(1 * kMs);
    EXPECT_TRUE(soc.fabricReady());
    bool ran = false;
    soc.whenFabricReady([&] { ran = true; });
    EXPECT_TRUE(ran); // synchronous when already open
}

TEST(Soc, FabricWaitersDrainInOrder)
{
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cpc1a);
    Soc soc(s, cfg, PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(10 * kUs);
    ASSERT_FALSE(soc.fabricReady());
    std::vector<int> order;
    soc.whenFabricReady([&] { order.push_back(1); });
    soc.whenFabricReady([&] { order.push_back(2); });
    soc.nic().transfer(0, nullptr); // wake
    s.runUntil(20 * kUs);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Soc, ResetStatsClearsCountersMidRun)
{
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cpc1a);
    Soc soc(s, cfg, PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(1 * kMs);
    soc.resetStats();
    const sim::Tick t0 = s.now();
    s.runUntil(t0 + 1 * kMs);
    // Post-reset: fully in PC1A.
    EXPECT_NEAR(soc.pkgResidency().residency(
                    static_cast<std::size_t>(PkgState::Pc1a), s.now()),
                1.0, 1e-9);
    EXPECT_NEAR(sim::toSeconds(soc.fullIdleTime()), 1e-3, 1e-5);
}

TEST(Soc, PoliciesDifferOnlyWhereExpected)
{
    const auto sh = SkxConfig::forPolicy(PackagePolicy::Cshallow);
    const auto dp = SkxConfig::forPolicy(PackagePolicy::Cdeep);
    const auto pa = SkxConfig::forPolicy(PackagePolicy::Cpc1a);
    EXPECT_FALSE(sh.gpmu.pc6Enabled);
    EXPECT_TRUE(dp.gpmu.pc6Enabled);
    EXPECT_FALSE(pa.gpmu.pc6Enabled);
    EXPECT_FALSE(sh.apc.enabled);
    EXPECT_TRUE(pa.apc.enabled);
    EXPECT_FALSE(sh.ladder.mask.isEnabled(cpu::CState::CC6));
    EXPECT_TRUE(dp.ladder.mask.isEnabled(cpu::CState::CC6));
    // The power calibration itself is shared.
    EXPECT_DOUBLE_EQ(sh.clm.dynWatts, pa.clm.dynWatts);
    EXPECT_DOUBLE_EQ(sh.mc.dramIdleWatts, dp.mc.dramIdleWatts);
}

// --- Configuration scaling ------------------------------------------

class SocScaling : public ::testing::TestWithParam<int>
{};

TEST_P(SocScaling, IdlePowerScalesWithCoreCount)
{
    const int n = GetParam();
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cshallow);
    cfg.numCores = n;
    Soc soc(s, cfg, PackagePolicy::Cshallow);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(100 * kUs);
    // PC0idle = n * 1.21 (cores) + 31.9 (uncore).
    const double expected = n * 1.21 + 19.84 + 10.0 + 0.056 + 2.0;
    EXPECT_NEAR(soc.meter().planePower(power::Plane::Package), expected,
                0.05);
}

TEST_P(SocScaling, Pc1aStillWorksAtAnyCoreCount)
{
    const int n = GetParam();
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cpc1a);
    cfg.numCores = n;
    Soc soc(s, cfg, PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(100 * kUs);
    EXPECT_EQ(soc.pkgState(), PkgState::Pc1a);
    // And it wakes correctly.
    bool delivered = false;
    soc.nic().transfer(0, [&] { delivered = true; });
    s.runUntil(s.now() + 10 * kUs);
    EXPECT_TRUE(delivered);
    EXPECT_LE(soc.apmu()->exitLatencyNs().max(), 170.0);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, SocScaling,
                         ::testing::Values(1, 2, 4, 10, 20, 28));

// --- Custom link sets --------------------------------------------------

TEST(SocCustom, SingleLinkNoUpiStillReachesPc1a)
{
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cpc1a);
    cfg.links = {io::IoLinkConfig::pcie(0)};
    Soc soc(s, cfg, PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(100 * kUs);
    EXPECT_EQ(soc.pkgState(), PkgState::Pc1a);
}

TEST(SocCustom, SingleMemoryController)
{
    sim::Simulation s;
    auto cfg = SkxConfig::forPolicy(PackagePolicy::Cpc1a);
    cfg.numMemCtrls = 1;
    Soc soc(s, cfg, PackagePolicy::Cpc1a);
    for (std::size_t i = 0; i < soc.numCores(); ++i)
        soc.core(i).release();
    s.runUntil(100 * kUs);
    EXPECT_EQ(soc.pkgState(), PkgState::Pc1a);
    EXPECT_EQ(soc.mc(0).state(), dram::McState::CkeOff);
}

} // namespace
} // namespace apc::soc
