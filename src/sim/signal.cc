#include "sim/signal.h"

#include <algorithm>
#include <cassert>

namespace apc::sim {

void
Signal::applyEdge(bool v)
{
    if (v == value_)
        return;
    value_ = v;
    if (v)
        ++rising_;
    else
        ++falling_;
    ++dispatchDepth_;
    for (SignalObserver &fn : subs_)
        fn(v);
    --dispatchDepth_;
}

void
Signal::write(bool v)
{
    // Any direct write supersedes in-flight delayed writes.
    writes_.restart();
    applyEdge(v);
}

void
Signal::writeAfter(Tick delay, bool v)
{
    if (delay <= 0) {
        write(v);
        return;
    }
    writes_.restart();
    // Only write/writeAfter change the level, and both restart the
    // flow: with nothing in flight, a write of the current level could
    // only fire as a no-op.
    if (v == value_)
        return;
    sim_.after(delay, writes_.guard([this, v] { applyEdge(v); }));
}

void
Signal::subscribe(SignalObserver fn)
{
    assert(dispatchDepth_ == 0 && "Signal::subscribe during dispatch");
    subs_.push_back(std::move(fn));
}

AndTree::AndTree(Simulation &sim, const std::string &name, Tick prop_delay)
    : propDelay_(prop_delay), out_(sim, name, false)
{}

void
AndTree::addInput(Signal &in)
{
    inputs_.push_back(&in);
    high_ += in.read();
    in.subscribe([this](bool v) { onInputEdge(v); });
    // Reflect the (possibly already-true) combinational value.
    out_.writeAfter(propDelay_, combinational());
}

void
AndTree::onInputEdge(bool v)
{
    if (v)
        ++high_;
    else
        --high_;
    assert(combinational() ==
               std::all_of(inputs_.begin(), inputs_.end(),
                           [](const Signal *s) { return s->read(); }) &&
           "AndTree high-input count out of step with its inputs");
    out_.writeAfter(propDelay_, combinational());
}

} // namespace apc::sim
