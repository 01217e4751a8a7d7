/**
 * @file
 * Boolean wire/signal model for the APC control fabric.
 *
 * The paper's architecture (Fig. 3) adds a handful of long-distance control
 * and status wires between the APMU and the rest of the SoC: `InCC1`,
 * `InL0s`, `AllowL0s`, `Allow_CKE_OFF`, `Ret`, `PwrOk`, `ClkGate`,
 * `InPC1A`, `WakeUp`. `Signal` models one such wire: a boolean level with
 * edge-notification to subscribers, with optional scheduled (delayed)
 * writes for modeling wire/aggregation propagation delay.
 *
 * `AndTree` models the AND-gate aggregation networks used for `InCC1` and
 * `InL0s` (Sec. 5.1/5.3): N input signals combined into one output signal
 * with a configurable propagation delay.
 */

#ifndef APC_SIM_SIGNAL_H
#define APC_SIM_SIGNAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace apc::sim {

/**
 * Edge callback: invoked with the new level after a change. Stored
 * inline (no heap allocation) when the captures fit in 32 bytes — every
 * observer in the control fabric is a `this` pointer plus a scalar or
 * two.
 */
using SignalObserver = InplaceFunction<void(bool), 32>;

/** A named boolean wire with edge notification. */
class Signal
{
  public:
    Signal(Simulation &sim, std::string name, bool initial = false)
        : sim_(sim), name_(std::move(name)), value_(initial)
    {}

    Signal(const Signal &) = delete;
    Signal &operator=(const Signal &) = delete;

    /** Current level. */
    bool read() const { return value_; }

    /** Wire name (for logs and debugging). */
    const std::string &name() const { return name_; }

    /**
     * Drive the wire immediately. Observers run synchronously, in
     * subscription order, only on an actual edge.
     */
    void write(bool v);

    /**
     * Drive the wire after @p delay ticks. A subsequent write (immediate
     * or scheduled) supersedes any in-flight scheduled write: last write
     * wins, mirroring a driver that re-drives the wire.
     */
    void writeAfter(Tick delay, bool v);

    /** Convenience: write(true) / write(false). */
    void set() { write(true); }
    void clear() { write(false); }

    /**
     * Subscribe to edges. Observers must not destroy the signal from
     * inside the callback.
     * @pre no edge of this signal is being dispatched: subscriptions
     * are wiring, made before the simulation drives the wire (asserted
     * in debug builds — a push_back mid-dispatch could reallocate the
     * observer list under the inline callable that is executing).
     */
    void subscribe(SignalObserver fn);

    /** Number of rising edges seen so far (for stats/tests). */
    std::uint64_t risingEdges() const { return rising_; }
    /** Number of falling edges seen so far. */
    std::uint64_t fallingEdges() const { return falling_; }

  private:
    /** Apply an edge (no generation bump) and notify observers. */
    void applyEdge(bool v);

    Simulation &sim_;
    std::string name_;
    bool value_;
    Flow writes_; ///< a newer write supersedes any still in flight
    std::uint64_t rising_ = 0;
    std::uint64_t falling_ = 0;
    std::vector<SignalObserver> subs_;
    int dispatchDepth_ = 0; ///< nesting of applyEdge (subscribe's check)
};

/**
 * AND-aggregation of input signals into an output signal, with a
 * propagation delay. The tree counts its high inputs: every observer
 * call is a real edge, so the count moves by one per edge and the
 * output level is recomputed in O(1). Output updates are scheduled
 * after the delay, last-change-wins.
 */
class AndTree
{
  public:
    /**
     * @param sim        owning simulation
     * @param name       name for the output wire
     * @param prop_delay gate + routing propagation delay
     */
    AndTree(Simulation &sim, const std::string &name, Tick prop_delay);

    /** Attach an input. All inputs must be attached before use. */
    void addInput(Signal &in);

    /** The aggregated output wire. */
    Signal &output() { return out_; }
    const Signal &output() const { return out_; }

    /** Combinational value of the AND over inputs right now (pre-delay). */
    bool
    combinational() const
    {
        return !inputs_.empty() && high_ == inputs_.size();
    }

  private:
    void onInputEdge(bool v);

    Tick propDelay_;
    Signal out_;
    std::vector<const Signal *> inputs_; ///< wiring (and debug checks)
    std::size_t high_ = 0;               ///< inputs now high
};

} // namespace apc::sim

#endif // APC_SIM_SIGNAL_H
