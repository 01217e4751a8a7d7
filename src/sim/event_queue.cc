#include "sim/event_queue.h"

#include <cassert>
#include <stdexcept>

namespace apc::sim {

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != kNoSlot) {
        const std::uint32_t slot = freeHead_;
        freeHead_ = record(slot).nextFree;
        return slot;
    }
    if (slots_ > kSlotMask)
        throw std::length_error("EventQueue: more than 2^24 events pending");
    if ((slots_ & kChunkMask) == 0)
        chunks_.push_back(std::make_unique<Record[]>(kChunkMask + 1));
    return slots_++;
}

std::uint32_t
EventQueue::prepareSchedule(Tick when)
{
    assert(when >= now_ && "event scheduled in the past");
    if (when < now_)
        when = now_;
    if (nextSeq_ >> (64 - kSlotBits))
        throw std::length_error("EventQueue: sequence numbers exhausted");
    const std::uint32_t slot = allocSlot();
    // Sift the new ref up from a hole at the end; parent of i is
    // (i - 1) / 4.
    const Ref ref{when, nextSeq_++ << kSlotBits | slot};
    std::size_t i = heap_.size();
    heap_.push_back(ref);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!(ref < heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = ref;
    return slot;
}

void
EventQueue::fireNext()
{
    const Ref top = heap_.front();
    const Ref last = heap_.back();
    heap_.pop_back();
    // Sift the last ref down from the root hole; the children of i are
    // 4i + 1 .. 4i + 4.
    const std::size_t n = heap_.size();
    if (n > 0) {
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            const std::size_t end = first + 4 < n ? first + 4 : n;
            std::size_t min = first;
            for (std::size_t c = first + 1; c < end; ++c)
                if (heap_[c] < heap_[min])
                    min = c;
            if (!(heap_[min] < last))
                break;
            heap_[i] = heap_[min];
            i = min;
        }
        heap_[i] = last;
    }

    assert(top.when >= now_);
    now_ = top.when;
    ++executed_;
    const auto slot = static_cast<std::uint32_t>(top.key & kSlotMask);
    // The chunks never move, so the record stays valid while its
    // callback schedules (and grows the slab); the slot is released
    // only after the callback returns.
    Record &r = record(slot);
    r.fn();
    r.fn = nullptr;
    r.nextFree = freeHead_;
    freeHead_ = slot;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    fireNext();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= until) {
        fireNext();
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
