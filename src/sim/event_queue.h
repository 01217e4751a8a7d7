/**
 * @file
 * Discrete-event queue for the AgilePkgC simulator.
 *
 * Events are (time, sequence, callback) triples; the monotonically
 * increasing sequence number makes same-tick ordering deterministic
 * (FIFO among events scheduled for the same tick). The firing order is
 * the total order by (when, seq) regardless of which internal container
 * an event lands in, so results are bit-identical to a plain binary
 * heap.
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
 *  - **Near-future timer wheel.** Events within ~2 ms of the wheel
 *    window land in one of 2048 ~1 µs buckets and bypass the binary
 *    heap entirely; a bucket is sorted once when the queue advances
 *    into it. Far-future events (and events landing in an
 *    already-consumed bucket) fall back to the heap. This absorbs the
 *    common short timers — C-state hysteresis, rx-usecs coalescing,
 *    RTO, cap sampling — at O(1) push instead of O(log n) heap churn.
 *
 * Every scheduled event fires. A component abandons one by guarding it
 * with a `sim::Flow` (sim/callback.h) and restarting the flow, which
 * turns the event into a no-op when it fires. The stale event keeps its
 * (when, seq) slot, so every other event runs in the same order as if
 * it had been removed.
 */

#ifndef APC_SIM_EVENT_QUEUE_H
#define APC_SIM_EVENT_QUEUE_H

#include <array>
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
    /** Wheel bucket width: 2^20 ps ≈ 1.05 µs. */
    static constexpr int kBucketShift = 20;
    static constexpr Tick kBucketTicks = Tick(1) << kBucketShift;
    /** Bucket count (power of two for mask indexing). */
    static constexpr std::size_t kNumBuckets = 2048;
    /** Wheel horizon: events beyond it go to the heap (~2.1 ms). */
    static constexpr Tick kWheelSpan =
        kBucketTicks * static_cast<Tick>(kNumBuckets);

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
    std::size_t pendingEvents() const { return live_; }

    /** Total events executed since construction (stale ones included). */
    std::uint64_t executedEvents() const { return executed_; }

    /** Allocated record-pool slots (high-water mark of pendingEvents). */
    std::size_t poolCapacity() const { return records_.size(); }

    /** Events that entered through the timer wheel / the binary heap. */
    std::uint64_t wheelScheduled() const { return wheelScheduled_; }
    std::uint64_t heapScheduled() const { return heapScheduled_; }

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /** Pooled event record; the callable lives inline here. */
    struct Record
    {
        EventFn fn;
        std::uint32_t nextFree = kNoSlot;
    };

    /** Lightweight entry stored in the wheel buckets and the heap. */
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

    static std::size_t
    bucketIndex(Tick when)
    {
        return static_cast<std::size_t>(when >> kBucketShift) &
            (kNumBuckets - 1);
    }

    /**
     * Allocate a record, assign its sequence number, and place the
     * (when, seq, slot) ref in the wheel or heap. The caller fills in
     * the callable. @return the record slot.
     */
    std::uint32_t prepareSchedule(Tick when);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);
    void loadNextBucket();
    /** Circular bucket distance from @p from to the next bucket whose
     *  occupancy bit is set (1 when the bitmap is clean). */
    std::size_t nextOccupiedDistance(std::size_t from) const;
    bool prepareNext();
    bool takeNext(Ref &out);
    bool peekWhen(Tick &when);

    std::vector<Record> records_;
    std::uint32_t freeHead_ = kNoSlot;

    /** Far-future / already-consumed-bucket events, min-heap by (when, seq). */
    std::vector<Ref> heap_;

    /** Near-future wheel. Buckets hold unsorted refs until consumed. */
    std::array<std::vector<Ref>, kNumBuckets> buckets_;
    /**
     * Bucket-occupancy bitmap (bit = bucket is non-empty). Lets a
     * sparse advance jump straight to the next occupied bucket instead
     * of stepping empty ones — a fleet of mostly-idle servers advanced
     * in ~200 µs epochs otherwise walks ~200 empty buckets per server
     * per epoch. A bit is set on push and cleared when its bucket is
     * loaded.
     */
    std::array<std::uint64_t, kNumBuckets / 64> occupied_{};
    std::size_t wheelCount_ = 0;
    /** Start tick of the first not-yet-consumed bucket (bucket-aligned). */
    Tick wheelNext_ = 0;

    /** The bucket being drained: sorted by (when, seq), consumed in order. */
    std::vector<Ref> run_;
    std::size_t runPos_ = 0;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;
    std::uint64_t wheelScheduled_ = 0;
    std::uint64_t heapScheduled_ = 0;
};

} // namespace apc::sim

#endif // APC_SIM_EVENT_QUEUE_H
