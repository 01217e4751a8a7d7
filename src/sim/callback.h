/**
 * @file
 * The component layer's callback mechanism: one completion callable
 * (`Callback`), one list of parked callbacks (`WaitList`), one
 * countdown join (`Joins`) and one abortable chain of steps (`Flow`).
 * None of them allocates in the steady state.
 */

#ifndef APC_SIM_CALLBACK_H
#define APC_SIM_CALLBACK_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace apc::sim {

/** Completion callback: a link transfer, a core wake, a DRAM or PLL
 *  flow step. 32 bytes hold a `this` pointer plus three scalars. */
using Callback = InplaceFunction<void(), 32>;

// The captures of an event lambda `[this, Callback]` must store inline.
static_assert(EventFn::storesInline<std::pair<void *, Callback>>(),
              "an event capturing [this, Callback] must not fall back to "
              "the heap: shrink Callback or grow EventFn");

/** The one way to abandon scheduled events: a timer (an idle window, a
 *  demotion delay, a relock) or a chain of steps that a newer one
 *  supersedes (an entry or exit flow, a delayed wire write). restart()
 *  turns every event guard()ed before it into a no-op; the event still
 *  fires, in its (tick, seq) slot, so no other event moves. */
class Flow
{
  public:
    void restart() { ++gen_; }

    /** Wrap @p fn to run only if the flow has not restarted since. */
    template <typename F>
    auto
    guard(F fn)
    {
        return [this, at = gen_, fn = std::move(fn)]() mutable {
            if (gen_ == at)
                fn();
        };
    }

  private:
    std::uint64_t gen_ = 0;
};

/**
 * FIFO of callbacks waiting for one condition (a link in L0, a core in
 * CC0, the fabric open). drain() runs, in order, every entry added
 * before it started; an entry added during a drain waits for the next
 * one, also when that drain is re-entered from inside an entry. The
 * two buffers are kept between drains, so a steady-state wake does not
 * allocate. @tparam Fn is `EventFn` for entries that wrap a `Callback`
 * with more state.
 */
template <typename Fn = Callback>
class WaitList
{
  public:
    void add(Fn fn) { queued_.push_back(std::move(fn)); }
    bool empty() const { return queued_.empty(); }
    /** Entries the list holds without allocating. */
    std::size_t capacity() const { return queued_.capacity(); }

    void
    drain()
    {
        if (queued_.empty())
            return;
        std::vector<Fn> batch;
        batch.swap(queued_);
        queued_.swap(spare_);
        for (Fn &fn : batch)
            if (fn)
                fn();
        batch.clear();
        // A re-entered drain may have parked its buffer here first.
        if (batch.capacity() > spare_.capacity())
            spare_.swap(batch);
    }

  private:
    std::vector<Fn> queued_;
    std::vector<Fn> spare_;
};

/**
 * Countdown joins: run one callback once N parts have arrived. A join
 * holds its slot until its own last part arrives, so a late part of an
 * abandoned flow counts down only that flow's join, never a newer one.
 */
class Joins
{
  public:
    using Id = std::uint32_t;

    /** Start a join of @p parts; @p done runs inside the last arrival,
     *  or now when @p parts is 0. @return the id parts arrive on. */
    Id
    start(int parts, Callback done)
    {
        if (parts == 0) {
            if (done)
                done();
            return UINT32_MAX;
        }
        Id id = static_cast<Id>(slots_.size());
        if (free_.empty()) {
            slots_.emplace_back();
        } else {
            id = free_.back();
            free_.pop_back();
        }
        slots_[id] = {parts, std::move(done)};
        return id;
    }

    void
    arrive(Id id)
    {
        Slot &s = slots_[id];
        assert(s.pending > 0 && "arrival on a finished join");
        if (--s.pending > 0)
            return;
        // `done` may start another join and grow slots_.
        Callback done = std::move(s.done);
        free_.push_back(id);
        if (done)
            done();
    }

    /** A callback that reports one part of join @p id. */
    Callback part(Id id) { return [this, id] { arrive(id); }; }

  private:
    struct Slot
    {
        int pending = 0;
        Callback done;
    };
    std::vector<Slot> slots_;
    std::vector<Id> free_;
};

} // namespace apc::sim

#endif // APC_SIM_CALLBACK_H
