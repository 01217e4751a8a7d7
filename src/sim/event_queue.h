/**
 * @file
 * Discrete-event queue for the AgilePkgC simulator.
 *
 * Events are (time, sequence, callback) triples; the monotonically
 * increasing sequence number makes same-tick ordering deterministic
 * (FIFO among events scheduled for the same tick). The firing order is
 * the total order by (when, seq).
 *
 * The implementation is built for the fleet-sweep hot path (millions of
 * short-horizon timers per run):
 *
 *  - **Slab-pooled event records.** Callbacks live in a pooled
 *    `EventRecord` with an inline small-buffer callable
 *    (`InplaceFunction`), so scheduling performs no callable or
 *    `shared_ptr` heap allocation. Slots are recycled through a free
 *    list.
 *
 *  - **One binary min-heap** of 24-byte (when, seq, slot) refs orders
 *    the pending events. A simulated server holds few at once (21–50
 *    at its peak, averaged over the servers of each perfbench
 *    workload), so a 2048-bucket near-future timer wheel took only
 *    15–51% of the schedules and cost ~100 KB per server.
 *
 * Every scheduled event fires. A component abandons one by guarding it
 * with a `sim::Flow` (sim/callback.h) and restarting the flow, which
 * turns the event into a no-op when it fires. The stale event keeps its
 * (when, seq) slot, so every other event runs in the same order as if
 * it had been removed.
 */

#ifndef APC_SIM_EVENT_QUEUE_H
#define APC_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace apc::sim {

/**
 * Callback type executed when an event fires. Inline capacity of 64
 * bytes covers a `this` pointer plus several captured scalars — the
 * entire simulator schedules without a callback heap allocation.
 */
using EventFn = InplaceFunction<void(), 64>;

/**
 * The central event queue. Owns simulated time: time only advances when
 * events are popped.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. The callable is
     * constructed directly into the pooled event record — no temporary
     * `EventFn`, no relocation, no heap allocation when it fits inline.
     *
     * @pre when >= now(); scheduling in the past is a simulator bug and
     *      asserts in debug builds (clamped to now() otherwise).
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        records_[prepareSchedule(when)].fn = std::forward<F>(fn);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Run events until the queue is empty or simulated time would exceed
     * @p until. Events scheduled exactly at @p until do run. Afterwards,
     * now() == max(now, until) if the limit was reached.
     *
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /** Run until the queue drains completely. @return events executed. */
    std::uint64_t runAll();

    /**
     * Execute at most one pending event.
     * @return true if an event was executed.
     */
    bool step();

    /** Number of scheduled events that have not fired yet. */
    std::size_t pendingEvents() const { return heap_.size(); }

    /** Total events executed since construction (stale ones included). */
    std::uint64_t executedEvents() const { return executed_; }

    /** Allocated record-pool slots (high-water mark of pendingEvents). */
    std::size_t poolCapacity() const { return records_.size(); }

    /**
     * Events scheduled since construction, split by the container they
     * entered: every event enters the heap, so wheelScheduled() is 0.
     * Kept for the census readers that still ask for the split.
     */
    std::uint64_t wheelScheduled() const { return 0; }
    std::uint64_t heapScheduled() const { return nextSeq_; }

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /** Pooled event record; the callable lives inline here. */
    struct Record
    {
        EventFn fn;
        std::uint32_t nextFree = kNoSlot;
    };

    /** Lightweight entry stored in the heap. */
    struct Ref
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Heap comparator: min-heap by (when, seq). */
    struct RefLater
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * Allocate a record, assign its sequence number, and place the
     * (when, seq, slot) ref on the heap. The caller fills in the
     * callable. @return the record slot.
     */
    std::uint32_t prepareSchedule(Tick when);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    std::vector<Record> records_;
    std::uint32_t freeHead_ = kNoSlot;

    /** Pending events, min-heap by (when, seq). */
    std::vector<Ref> heap_;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace apc::sim

#endif // APC_SIM_EVENT_QUEUE_H
