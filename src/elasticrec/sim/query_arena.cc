#include "elasticrec/sim/query_arena.h"

#include <algorithm>

namespace erec::sim {

std::uint32_t
QueryArena::allocate(SimTime arrival, std::uint32_t outstanding,
                     std::size_t trace_root)
{
    if (freeList_.empty())
        grow();
    const std::uint32_t slot = freeList_.back();
    freeList_.pop_back();
    arrival_[slot] = arrival;
    lastDone_[slot] = 0;
    outstanding_[slot] = outstanding;
    dead_[slot] = 0;
    traceRoot_[slot] = trace_root;
    return slot;
}

void
QueryArena::untraceAll()
{
    std::fill(traceRoot_.begin(), traceRoot_.end(), kUntraced);
}

// ERC_HOT_PATH_ALLOW("cold growth path: the SoA vectors double only when the in-flight population exceeds every previous peak; steady-state allocation cycles through the free list")
void
QueryArena::grow()
{
    const std::size_t old = arrival_.size();
    const std::size_t wider = old == 0 ? 64 : old * 2;
    arrival_.resize(wider, 0);
    lastDone_.resize(wider, 0);
    outstanding_.resize(wider, 0);
    dead_.resize(wider, 0);
    traceRoot_.resize(wider, kUntraced);
    // Reserve free-list capacity for every slot up front so release()
    // can push without ever allocating.
    freeList_.reserve(wider);
    // Hand out low slots first (the list is LIFO).
    for (std::size_t s = wider; s > old; --s)
        freeList_.push_back(static_cast<std::uint32_t>(s - 1));
}

} // namespace erec::sim
