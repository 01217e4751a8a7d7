/**
 * @file
 * OS idle governor.
 *
 * When a core goes idle the OS picks a C-state. The model has one
 * policy, `LadderGovernor`: enter the shallowest enabled state and
 * *promote* to deeper states as the idle period stretches (Linux
 * "ladder"; also a good match for the powertop auto-tuned Cdeep setup
 * in the paper). In the Cshallow baseline only CC1 is enabled, so it
 * degenerates to "always CC1", matching datacenter practice.
 */

#ifndef APC_CPU_GOVERNOR_H
#define APC_CPU_GOVERNOR_H

#include "cpu/cstate.h"
#include "sim/time.h"

namespace apc::cpu {

/** Ladder policy: shallow first, promote on residency thresholds. */
class LadderGovernor
{
  public:
    struct Config
    {
        CStateMask mask = CStateMask::shallowOnly();
        /** Residency in CC1 before promoting to CC1E. */
        sim::Tick cc1ToCc1e = 20 * sim::kUs;
        /** Residency in CC1E before promoting to CC6. */
        sim::Tick cc1eToCc6 = 200 * sim::kUs;
    };

    explicit LadderGovernor(const Config &cfg) : cfg_(cfg) {}

    /** State to enter when the core first goes idle. */
    static constexpr CState initialState() { return CState::CC1; }

    /**
     * Residency in @p current after which the core should be promoted to
     * @p next_out (deeper). Returns kTickNever when no promotion applies.
     */
    sim::Tick promoteAfter(CState current, CState &next_out) const;

  private:
    Config cfg_;
};

} // namespace apc::cpu

#endif // APC_CPU_GOVERNOR_H
