#include "cpu/governor.h"

namespace apc::cpu {

sim::Tick
LadderGovernor::promoteAfter(CState current, CState &next_out) const
{
    switch (current) {
      case CState::CC1:
        if (cfg_.mask.isEnabled(CState::CC1E)) {
            next_out = CState::CC1E;
            return cfg_.cc1ToCc1e;
        }
        if (cfg_.mask.isEnabled(CState::CC6)) {
            next_out = CState::CC6;
            return cfg_.cc1ToCc1e + cfg_.cc1eToCc6;
        }
        return sim::kTickNever;
      case CState::CC1E:
        if (cfg_.mask.isEnabled(CState::CC6)) {
            next_out = CState::CC6;
            return cfg_.cc1eToCc6;
        }
        return sim::kTickNever;
      default:
        return sim::kTickNever;
    }
}

} // namespace apc::cpu
