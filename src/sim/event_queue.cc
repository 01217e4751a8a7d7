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
    heap_.push_back(Ref{when, nextSeq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), RefLater{});
    return slot;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
    const Ref ref = heap_.back();
    heap_.pop_back();
    assert(ref.when >= now_);
    now_ = ref.when;
    EventFn fn = std::move(records_[ref.slot].fn);
    // Free the slot before invoking: the callback may schedule and grow
    // the pool.
    freeSlot(ref.slot);
    ++executed_;
    fn();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= until) {
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
