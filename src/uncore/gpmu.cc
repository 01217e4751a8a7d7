#include "uncore/gpmu.h"

#include <cassert>

namespace apc::uncore {

Gpmu::Gpmu(sim::Simulation &sim, const GpmuConfig &cfg,
           std::vector<cpu::Core *> cores, std::vector<io::IoLink *> links,
           std::vector<dram::MemoryController *> mcs, Clm *clm,
           PllFarm *plls)
    : sim_(sim), cfg_(cfg), cores_(std::move(cores)),
      links_(std::move(links)), mcs_(std::move(mcs)), clm_(clm),
      plls_(plls), wakeUp_(sim, "gpmu.WakeUp", false)
{
    if (!cfg_.pc6Enabled)
        return;
    allCc6_ = std::make_unique<sim::AndTree>(sim, "gpmu.AllCC6",
                                             2 * sim::kNs);
    for (auto *c : cores_)
        allCc6_->addInput(c->inCc6());
    allCc6_->output().subscribe([this](bool v) { onAllCc6(v); });
    // Traffic hitting a sleeping link (its L1 exit starts, dropping
    // InL0s) is a wake event for the package.
    for (auto *l : links_) {
        l->inL0s().subscribe([this](bool v) {
            if (!v &&
                (state_ == State::Pc6 || state_ == State::EnteringPc6)) {
                triggerWake();
            }
        });
    }
}

void
Gpmu::setState(State s)
{
    if (s == state_)
        return;
    state_ = s;
    for (auto &fn : observers_)
        fn(s);
}

void
Gpmu::onAllCc6(bool level)
{
    if (!level) {
        demotionEvent_.restart();
        // A core waking is a wake event for any in-flight or resident
        // deep package state.
        if (state_ == State::EnteringPc6 || state_ == State::Pc6)
            triggerWake();
        return;
    }
    if (state_ != State::Pc0)
        return;
    sim_.after(cfg_.demotionDelay, demotionEvent_.guard([this] {
        if (allCc6_->output().read() && state_ == State::Pc0)
            startEntry();
    }));
}

void
Gpmu::triggerWake()
{
    switch (state_) {
      case State::Pc0:
        return; // nothing to wake from
      case State::EnteringPc6:
        wakePending_ = true; // entry steps check at boundaries
        return;
      case State::Pc6:
        startExit();
        return;
      case State::ExitingPc6:
        return; // already on the way out
    }
}

void
Gpmu::startEntry()
{
    assert(state_ == State::Pc0);
    flowStart_ = sim_.now();
    wakePending_ = false;
    doneIoL1_ = doneDramSr_ = doneClkPll_ = doneVRet_ = false;
    setState(State::EnteringPc6); // the transient PC2 window
    flow_.restart();
    sim_.after(cfg_.ioL1Msg, entryStep(&Gpmu::entryIoL1));
}

void
Gpmu::entryIoL1()
{
    forAll(links_, &io::IoLink::enterL1,
           flow_.guard([this] {
               doneIoL1_ = true;
               sim_.after(cfg_.dramSrMsg, entryStep(&Gpmu::entryDramSr));
           }));
}

void
Gpmu::entryDramSr()
{
    forAll(mcs_, &dram::MemoryController::enterSelfRefresh,
           flow_.guard([this] {
               doneDramSr_ = true;
               sim_.after(cfg_.clkPllMsg, entryStep(&Gpmu::entryClkPll));
           }));
}

void
Gpmu::entryClkPll()
{
    if (clm_)
        clm_->gateClocks();
    if (plls_)
        plls_->powerOffAll();
    doneClkPll_ = true;
    sim_.after(cfg_.vRetMsg, entryStep(&Gpmu::entryVRet));
}

void
Gpmu::entryVRet()
{
    if (clm_)
        clm_->setRetention(true);
    doneVRet_ = true;
    finishEntry();
}

void
Gpmu::finishEntry()
{
    setState(State::Pc6);
    ++pc6Entries_;
    entryLatencyUs_.record(sim::toMicros(sim_.now() - flowStart_));
    if (wakePending_)
        startExit();
}

void
Gpmu::startExit()
{
    assert(state_ == State::EnteringPc6 || state_ == State::Pc6);
    flow_.restart(); // invalidate any in-flight entry steps
    wakePending_ = false;
    flowStart_ = sim_.now();
    setState(State::ExitingPc6);
    exitVNom();
}

void
Gpmu::exitVNom()
{
    if (!doneVRet_ || !clm_) {
        exitPllUngate();
        return;
    }
    sim_.after(cfg_.vNomMsg, flow_.guard([this] {
        clm_->setRetention(false);
        // Wait for the rails to settle (PwrOk) before touching clocks.
        sim_.after(clm_->settleTimeRemaining(), flow_.guard([this] {
            doneVRet_ = false;
            exitPllUngate();
        }));
    }));
}

void
Gpmu::exitPllUngate()
{
    if (!doneClkPll_) {
        exitDramSr();
        return;
    }
    auto ungate = flow_.guard([this] {
        sim_.after(cfg_.ungateMsg, flow_.guard([this] {
            if (clm_)
                clm_->ungateClocks();
            doneClkPll_ = false;
            exitDramSr();
        }));
    });
    if (plls_)
        plls_->powerOnAll(std::move(ungate));
    else
        ungate();
}

void
Gpmu::exitDramSr()
{
    if (!doneDramSr_) {
        exitIoL1();
        return;
    }
    sim_.after(cfg_.dramExitMsg, flow_.guard([this] {
        forAll(mcs_, &dram::MemoryController::exitSelfRefresh,
               flow_.guard([this] {
                   doneDramSr_ = false;
                   exitIoL1();
               }));
    }));
}

void
Gpmu::exitIoL1()
{
    if (!doneIoL1_) {
        finishExit();
        return;
    }
    sim_.after(cfg_.ioExitMsg, flow_.guard([this] {
        forAll(links_, &io::IoLink::exitL1,
               flow_.guard([this] {
                   doneIoL1_ = false;
                   finishExit();
               }));
    }));
}

void
Gpmu::finishExit()
{
    exitLatencyUs_.record(sim::toMicros(sim_.now() - flowStart_));
    setState(State::Pc0);
    // Pulse the wake wire for the APMU / residency listeners.
    wakeUp_.write(true);
    wakeUp_.write(false);
    // If the wake was spurious and all cores are still in CC6, the
    // demotion path will re-enter PC6 after the demotion delay.
    if (allCc6_ && allCc6_->output().read())
        onAllCc6(true);
}

} // namespace apc::uncore
