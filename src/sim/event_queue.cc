#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace apc::sim {

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != kNoSlot) {
        const std::uint32_t slot = freeHead_;
        freeHead_ = records_[slot].nextFree;
        return slot;
    }
    records_.emplace_back();
    return static_cast<std::uint32_t>(records_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    records_[slot].nextFree = freeHead_;
    freeHead_ = slot;
}

std::uint32_t
EventQueue::prepareSchedule(Tick when)
{
    assert(when >= now_ && "event scheduled in the past");
    if (when < now_)
        when = now_;

    const std::uint32_t slot = allocSlot();
    ++live_;

    // An idle wheel may lag far behind after a quiet stretch; resync the
    // window to now so short-horizon timers keep hitting buckets.
    if (wheelCount_ == 0 && runPos_ >= run_.size()) {
        const Tick aligned = now_ & ~(kBucketTicks - 1);
        if (aligned > wheelNext_)
            wheelNext_ = aligned;
    }

    const Ref ref{when, nextSeq_++, slot};
    if (when >= wheelNext_ && when - wheelNext_ < kWheelSpan) {
        const std::size_t b = bucketIndex(when);
        buckets_[b].push_back(ref);
        occupied_[b >> 6] |= std::uint64_t(1) << (b & 63);
        ++wheelCount_;
        ++wheelScheduled_;
    } else {
        heap_.push_back(ref);
        std::push_heap(heap_.begin(), heap_.end(), RefLater{});
        ++heapScheduled_;
    }
    return slot;
}

void
EventQueue::loadNextBucket()
{
    run_.clear();
    runPos_ = 0;
    std::size_t b = bucketIndex(wheelNext_);
    if (buckets_[b].empty()) {
        // Skip the empty stretch in one hop. Only called with
        // wheelCount_ > 0, so an occupied bucket exists.
        const std::size_t d = nextOccupiedDistance(b);
        wheelNext_ += static_cast<Tick>(d) * kBucketTicks;
        b = (b + d) & (kNumBuckets - 1);
    }
    occupied_[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
    run_.swap(buckets_[b]);
    wheelCount_ -= run_.size();
    if (run_.size() > 1)
        std::sort(run_.begin(), run_.end(), [](const Ref &x, const Ref &y) {
            if (x.when != y.when)
                return x.when < y.when;
            return x.seq < y.seq;
        });
    wheelNext_ += kBucketTicks;
}

std::size_t
EventQueue::nextOccupiedDistance(std::size_t from) const
{
    constexpr std::size_t kWords = kNumBuckets / 64;
    std::size_t word = from >> 6;
    const std::size_t bit = from & 63;
    // Bits strictly after `from` in its word, then whole words,
    // circularly (the wrap revisit of the first word is harmless: any
    // bit found maps to a correct circular distance).
    std::uint64_t w = bit == 63
        ? 0
        : occupied_[word] & (~std::uint64_t(0) << (bit + 1));
    for (std::size_t step = 0; step <= kWords; ++step) {
        if (w != 0) {
            const std::size_t idx = (word << 6) |
                static_cast<std::size_t>(__builtin_ctzll(w));
            return (idx + kNumBuckets - from) & (kNumBuckets - 1);
        }
        word = (word + 1) & (kWords - 1);
        w = occupied_[word];
    }
    return 1; // clean bitmap: fall back to the single-bucket step
}

/**
 * Establish the pop invariant: every wheel bucket that could hold an
 * entry preceding the heap top has been loaded. @return true if any
 * event is pending.
 */
bool
EventQueue::prepareNext()
{
    for (;;) {
        if (runPos_ < run_.size())
            return true;
        if (wheelCount_ == 0)
            return !heap_.empty();
        if (!heap_.empty() && heap_.front().when < wheelNext_)
            return true; // heap top precedes all unloaded wheel content
        loadNextBucket();
    }
}

bool
EventQueue::takeNext(Ref &out)
{
    if (!prepareNext())
        return false;
    const bool haveRun = runPos_ < run_.size();
    bool fromRun = haveRun;
    if (haveRun && !heap_.empty()) {
        const Ref &r = run_[runPos_];
        const Ref &h = heap_.front();
        fromRun = r.when != h.when ? r.when < h.when : r.seq < h.seq;
    }
    if (fromRun) {
        out = run_[runPos_++];
    } else {
        out = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
        heap_.pop_back();
    }
    return true;
}

bool
EventQueue::peekWhen(Tick &when)
{
    if (!prepareNext())
        return false;
    const bool haveRun = runPos_ < run_.size();
    if (haveRun && !heap_.empty())
        when = std::min(run_[runPos_].when, heap_.front().when);
    else
        when = haveRun ? run_[runPos_].when : heap_.front().when;
    return true;
}

bool
EventQueue::step()
{
    Ref ref;
    if (!takeNext(ref))
        return false;
    assert(ref.when >= now_);
    now_ = ref.when;
    EventFn fn = std::move(records_[ref.slot].fn);
    // Free the slot before invoking: the callback may schedule and grow
    // the pool.
    freeSlot(ref.slot);
    --live_;
    ++executed_;
    fn();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    Tick when;
    while (peekWhen(when) && when <= until) {
        step();
        ++n;
    }
    if (now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

} // namespace apc::sim
