#include "soc/skx_config.h"

namespace apc::soc {

SkxConfig
SkxConfig::forPolicy(PackagePolicy policy)
{
    SkxConfig c;
    switch (policy) {
      case PackagePolicy::Cshallow:
        // Vendor-recommended latency tuning: CC1 only, no package
        // C-states, no link power management, no DRAM power-down.
        c.ladder.mask = cpu::CStateMask::shallowOnly();
        c.gpmu.pc6Enabled = false;
        c.apc.enabled = false;
        break;
      case PackagePolicy::Cdeep:
        // Everything on (powertop --auto-tune): CC6 reachable, PC6
        // reachable once all cores are in CC6.
        c.ladder.mask = cpu::CStateMask::allEnabled();
        c.gpmu.pc6Enabled = true;
        c.apc.enabled = false;
        break;
      case PackagePolicy::Cpc1a:
        // The paper's proposal: the Cshallow baseline plus APC.
        c.ladder.mask = cpu::CStateMask::shallowOnly();
        c.gpmu.pc6Enabled = false;
        c.apc.enabled = true;
        break;
    }
    return c;
}

} // namespace apc::soc
