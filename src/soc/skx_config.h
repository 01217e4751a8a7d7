/**
 * @file
 * Full-system configuration for the reference server: an Intel Xeon
 * Silver 4114 (Skylake-SP) — 10 cores, 2 memory controllers, 3 PCIe +
 * 1 DMI + 2 UPI links, mesh uncore — as used in the paper's evaluation
 * (Sec. 6). Power/latency calibration is derived in DESIGN.md Sec. 3
 * from the paper's Table 1 and Sec. 5.4/5.5 measurements.
 */

#ifndef APC_SOC_SKX_CONFIG_H
#define APC_SOC_SKX_CONFIG_H

#include <vector>

#include "core/apc_config.h"
#include "cpu/core.h"
#include "cpu/governor.h"
#include "dram/memory_controller.h"
#include "io/io_link.h"
#include "power/pll.h"
#include "uncore/clm.h"
#include "uncore/gpmu.h"

namespace apc::soc {

/** The three system configurations evaluated in the paper (Sec. 6). */
enum class PackagePolicy
{
    Cshallow, ///< CC1 only, no package states (datacenter baseline)
    Cdeep,    ///< all C-states + PC6 enabled (powertop auto-tune)
    Cpc1a,    ///< Cshallow + AgilePkgC (PC1A reachable)
};

/** Display name. */
constexpr const char *
policyName(PackagePolicy p)
{
    switch (p) {
      case PackagePolicy::Cshallow:
        return "Cshallow";
      case PackagePolicy::Cdeep:
        return "Cdeep";
      case PackagePolicy::Cpc1a:
        return "C_PC1A";
    }
    return "?";
}

/** Whole-SoC configuration. */
struct SkxConfig
{
    int numCores = 10;
    int numMemCtrls = 2;

    cpu::CoreConfig core = cpu::CoreConfig::skxDefaults();
    /** Idle governor; `ladder.mask` is the set of enabled core C-states. */
    cpu::LadderGovernor::Config ladder{};

    uncore::ClmConfig clm{};
    power::PllConfig pll{};
    uncore::GpmuConfig gpmu{};
    core::ApcConfig apc{};
    dram::MemoryControllerConfig mc{};

    /** Links: 3×PCIe, 1×DMI, 2×UPI (Xeon Silver 4114). */
    std::vector<io::IoLinkConfig> links = {
        io::IoLinkConfig::pcie(0), io::IoLinkConfig::pcie(1),
        io::IoLinkConfig::pcie(2), io::IoLinkConfig::dmi(),
        io::IoLinkConfig::upi(0), io::IoLinkConfig::upi(1),
    };

    /** Always-on north-cap logic: GPMU, fuses, clock generation, ... */
    double northCapMiscWatts = 2.0;

    /**
     * Build the configuration for one of the paper's three system
     * setups; only the policy-dependent knobs differ.
     */
    static SkxConfig forPolicy(PackagePolicy policy);
};

} // namespace apc::soc

#endif // APC_SOC_SKX_CONFIG_H
