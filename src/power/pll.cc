#include "power/pll.h"

namespace apc::power {

Pll::Pll(sim::Simulation &sim, EnergyMeter &meter, std::string name,
         const PllConfig &cfg, Plane plane)
    : sim_(sim), cfg_(cfg), name_(std::move(name)),
      locked_(sim, name_ + ".locked", true),
      load_(meter, name_, plane, cfg.powerWatts)
{}

void
Pll::powerOn(sim::Callback on_locked)
{
    if (state_ == State::Locked) {
        if (on_locked)
            on_locked();
        return;
    }
    lockWaiters_.add(std::move(on_locked));
    if (state_ == State::Locking)
        return;
    state_ = State::Locking;
    load_.setPower(cfg_.powerWatts);
    sim_.after(cfg_.relockLatency, lockEvent_.guard([this] {
        state_ = State::Locked;
        locked_.write(true);
        lockWaiters_.drain();
    }));
}

void
Pll::powerOff()
{
    if (state_ == State::Off)
        return;
    lockEvent_.restart();
    state_ = State::Off;
    load_.setPower(0.0);
    locked_.write(false);
}

} // namespace apc::power
