#include "event_trace.hh"

#include <sanitizer/asan_interface.h>

#include "support/slot_pool.hh"

namespace sigil::core {

namespace {

/** The pool of record blocks. */
SlotPool &
blockPool()
{
    constexpr std::size_t bytes =
        EventRecords::kBlockRecords * sizeof(EventRecord);
    // Never destroyed: a trace with static storage duration may release
    // its blocks after exit-time destructors have run.
    static SlotPool *const pool = new SlotPool(bytes);
    return *pool;
}

} // namespace

EventRecords::EventRecords(const EventRecords &o)
{
    for (const EventRecord &r : o)
        push_back(r);
}

EventRecords::EventRecords(EventRecords &&o) noexcept
    : blocks_(std::move(o.blocks_)), size_(o.size_)
{
    o.blocks_.clear();
    o.size_ = 0;
}

EventRecords &
EventRecords::operator=(EventRecords o) noexcept
{
    blocks_.swap(o.blocks_);
    std::swap(size_, o.size_);
    return *this;
}

void
EventRecords::clear()
{
    for (EventRecord *block : blocks_)
        blockPool().release(block);
    blocks_.clear();
    size_ = 0;
}

void
EventRecords::addBlock()
{
    void *block = blockPool().acquire();
    // The whole block belongs to this trace from now on; records are
    // constructed in it as they are appended.
    ASAN_UNPOISON_MEMORY_REGION(block,
                                kBlockRecords * sizeof(EventRecord));
    blocks_.push_back(static_cast<EventRecord *>(block));
}

} // namespace sigil::core
