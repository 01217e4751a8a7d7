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
 * short-horizon timers per run), where the host cost of one event is
 * most of the simulator's run time:
 *
 *  - **Slab-pooled event records.** Callbacks live in a pooled
 *    `Record` with an inline small-buffer callable (`InplaceFunction`),
 *    so scheduling performs no callable or `shared_ptr` heap
 *    allocation. Records sit in 16-record chunks that never move, and
 *    free slots are recycled through a free list.
 *
 *  - **Callbacks run in place.** step() invokes the callable inside its
 *    record and frees the slot only after the callback returns: the
 *    slot stays held while its callback runs, so a callback that
 *    schedules (and grows the slab by a chunk) never moves or reuses
 *    the record it is executing from. Each callable is destroyed
 *    exactly once, right after it returns.
 *
 *  - **One 4-ary min-heap** of 16-byte `{when, seq << 24 | slot}` refs
 *    orders the pending events. The sequence number sits above the
 *    slot, so the key compares in (when, seq) order; keys are unique,
 *    so the heap pops the same sequence as any other min-heap. A
 *    simulated server holds few events at once (21–50 at its peak,
 *    averaged over the servers of each perfbench workload), so the
 *    shallow, wide heap stays in a few cache lines.
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
#include <memory>
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
     * @throws std::length_error past 2^24 events pending at once or
     *      2^40 events scheduled in total (the widths of the key's
     *      slot and sequence fields).
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        record(prepareSchedule(when)).fn = std::forward<F>(fn);
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

    /** Record-pool slots handed out so far: the high-water mark of
     *  the pending events plus the one whose callback is running. */
    std::size_t poolCapacity() const { return slots_; }

    /**
     * Events scheduled since construction, split by the container they
     * entered: every event enters the heap, so wheelScheduled() is 0.
     * Kept for the census readers that still ask for the split.
     */
    std::uint64_t wheelScheduled() const { return 0; }
    std::uint64_t heapScheduled() const { return nextSeq_; }

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;
    /** Low key bits hold the slot; the sequence number sits above. */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
    /** Records per slab chunk (a power of two). */
    static constexpr unsigned kChunkBits = 4;
    static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

    /** Pooled event record; the callable lives inline here. */
    struct Record
    {
        EventFn fn;
        std::uint32_t nextFree = kNoSlot;
    };

    /** Heap entry: min-heap by (when, key), key = seq << 24 | slot. */
    struct Ref
    {
        Tick when;
        std::uint64_t key;

        bool
        operator<(const Ref &o) const
        {
            return when != o.when ? when < o.when : key < o.key;
        }
    };
    static_assert(sizeof(Ref) == 16);

    Record &
    record(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkBits][slot & kChunkMask];
    }

    /**
     * Allocate a record, assign its sequence number, and place the
     * ref on the heap. The caller fills in the callable.
     * @return the record slot.
     */
    std::uint32_t prepareSchedule(Tick when);

    /** Pop the earliest ref and run its callback. @pre !heap_.empty() */
    void fireNext();

    std::uint32_t allocSlot();

    /** Fixed-size chunks: a record never moves once allocated. */
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::uint32_t slots_ = 0; ///< slots handed out so far
    std::uint32_t freeHead_ = kNoSlot;

    /** Pending events, a 4-ary min-heap of refs. */
    std::vector<Ref> heap_;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace apc::sim

#endif // APC_SIM_EVENT_QUEUE_H
