/**
 * @file
 * Unit tests for the uncore: CLM domain (clock gating + retention
 * voltage) and the PLL farm.
 */

#include <gtest/gtest.h>

#include <vector>

#include "power/energy_meter.h"
#include "uncore/clm.h"
#include "uncore/pll_farm.h"

namespace apc::uncore {
namespace {

using sim::kNs;
using sim::kUs;

struct ClmFixture
{
    sim::Simulation s;
    power::EnergyMeter m{s};
    Clm clm;

    ClmFixture() : clm(s, m, ClmConfig{}) {}

    double watts() { return m.planePower(power::Plane::Package); }
};

TEST(Clm, StartsAvailableAtFullPower)
{
    ClmFixture f;
    EXPECT_TRUE(f.clm.available().read());
    EXPECT_TRUE(f.clm.pwrOk().read());
    EXPECT_DOUBLE_EQ(f.clm.voltage(), 0.8);
    // dyn 6.54 + leak 13.30 = 19.84 W (DESIGN.md Sec. 3).
    EXPECT_NEAR(f.watts(), 19.84, 1e-9);
}

TEST(Clm, ClockGatingDropsDynamicPower)
{
    ClmFixture f;
    f.clm.gateClocks();
    f.s.runAll();
    EXPECT_FALSE(f.clm.available().read());
    EXPECT_NEAR(f.watts(), 13.30, 1e-9); // leakage only
}

TEST(Clm, RetentionDropsLeakage)
{
    ClmFixture f;
    f.clm.gateClocks();
    f.s.runAll();
    f.clm.setRetention(true);
    EXPECT_FALSE(f.clm.pwrOk().read());
    f.s.runAll();
    EXPECT_DOUBLE_EQ(f.clm.voltage(), 0.5);
    EXPECT_TRUE(f.clm.pwrOk().read());
    // Leakage scales with V: 13.30 * 0.5/0.8 = 8.3125 W.
    EXPECT_NEAR(f.watts(), 8.3125, 1e-6);
}

TEST(Clm, RetentionRampTakes150ns)
{
    ClmFixture f;
    f.clm.gateClocks();
    f.s.runAll();
    const sim::Tick t0 = f.s.now();
    f.clm.setRetention(true);
    EXPECT_EQ(f.clm.settleTimeRemaining(), 150 * kNs);
    sim::Tick ok_at = -1;
    f.clm.pwrOk().subscribe([&](bool v) {
        if (v)
            ok_at = f.s.now();
    });
    f.s.runAll();
    EXPECT_EQ(ok_at, t0 + 150 * kNs);
}

TEST(Clm, EnergyDuringRampIsTrapezoidal)
{
    ClmFixture f;
    f.clm.gateClocks();
    f.s.runAll();
    const double e0 = f.m.planeEnergy(power::Plane::Package);
    const sim::Tick t0 = f.s.now();
    f.clm.setRetention(true);
    f.s.runUntil(t0 + 150 * kNs);
    const double e1 = f.m.planeEnergy(power::Plane::Package);
    // Average of 13.30 and 8.3125 over 150 ns.
    const double expected = 0.5 * (13.30 + 8.3125) * 150e-9;
    EXPECT_NEAR(e1 - e0, expected, 1e-12);
}

TEST(Clm, AvailableRequiresNominalAndClocks)
{
    ClmFixture f;
    f.clm.gateClocks();
    f.s.runAll();
    f.clm.setRetention(true);
    f.s.runAll();
    EXPECT_FALSE(f.clm.available().read());
    // Ramp back up, but clocks still gated -> not available.
    f.clm.setRetention(false);
    f.s.runAll();
    EXPECT_FALSE(f.clm.available().read());
    f.clm.ungateClocks();
    f.s.runAll();
    EXPECT_TRUE(f.clm.available().read());
    EXPECT_NEAR(f.watts(), 19.84, 1e-9);
}

TEST(Clm, PreemptiveWakeMidEntryRamp)
{
    ClmFixture f;
    f.clm.gateClocks();
    f.s.runAll();
    const sim::Tick t0 = f.s.now();
    f.clm.setRetention(true);
    f.s.runUntil(t0 + 75 * kNs); // halfway down, ~0.65 V
    f.clm.setRetention(false);
    EXPECT_EQ(f.clm.settleTimeRemaining(), 75 * kNs);
    f.s.runAll();
    EXPECT_DOUBLE_EQ(f.clm.voltage(), 0.8);
}

TEST(Clm, BothFivrsTrackEachOther)
{
    ClmFixture f;
    f.clm.setRetention(true);
    f.s.runAll();
    EXPECT_DOUBLE_EQ(f.clm.fivr0().voltage(), 0.5);
    EXPECT_DOUBLE_EQ(f.clm.fivr1().voltage(), 0.5);
    EXPECT_TRUE(f.clm.inRetention());
}

TEST(PllFarm, HasEightPllsAllLocked)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    PllFarm farm(s, m, power::PllConfig{});
    EXPECT_EQ(farm.size(), 8u);
    EXPECT_TRUE(farm.allLocked());
    // 8 x 7 mW = 56 mW: the paper's PPLLs_diff (Sec. 5.4).
    EXPECT_NEAR(farm.totalPowerWatts(), 0.056, 1e-9);
}

TEST(PllFarm, PowerOffAllDropsPower)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    PllFarm farm(s, m, power::PllConfig{});
    farm.powerOffAll();
    EXPECT_FALSE(farm.allLocked());
    EXPECT_NEAR(farm.totalPowerWatts(), 0.0, 1e-12);
}

TEST(PllFarm, PowerOnAllWaitsForSlowestRelock)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    power::PllConfig cfg;
    cfg.relockLatency = 5 * kUs;
    PllFarm farm(s, m, cfg);
    farm.powerOffAll();
    s.runUntil(1 * kUs);
    sim::Tick done_at = -1;
    farm.powerOnAll([&] { done_at = s.now(); });
    s.runAll();
    EXPECT_EQ(done_at, 1 * kUs + 5 * kUs);
    EXPECT_TRUE(farm.allLocked());
}

TEST(PllFarm, OverlappingPowerOnAllCallsEachComplete)
{
    // Each call keeps its own join: a second call while the PLLs are
    // still relocking completes at the same lock, after the first.
    sim::Simulation s;
    power::EnergyMeter m(s);
    power::PllConfig cfg;
    cfg.relockLatency = 5 * kUs;
    PllFarm farm(s, m, cfg);
    farm.powerOffAll();
    farm.pll(3).powerOn(); // one PLL already relocking
    s.runUntil(1 * kUs);
    std::vector<int> order;
    farm.powerOnAll([&] { order.push_back(1); });
    s.runUntil(2 * kUs);
    farm.powerOnAll([&] { order.push_back(2); });
    s.runUntil(6 * kUs - 1);
    EXPECT_TRUE(order.empty());
    s.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(s.now(), 6 * kUs);
}

TEST(PllFarm, PowerOnAllWhenLockedIsImmediate)
{
    sim::Simulation s;
    power::EnergyMeter m(s);
    PllFarm farm(s, m, power::PllConfig{});
    bool done = false;
    farm.powerOnAll([&] { done = true; });
    EXPECT_TRUE(done);
}

} // namespace
} // namespace apc::uncore
