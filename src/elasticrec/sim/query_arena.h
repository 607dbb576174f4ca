#pragma once

/**
 * @file
 * Arena for in-flight query fan-out/fan-in state.
 *
 * Replaces the per-query shared_ptr<QueryCtx> of the closure-based
 * simulator: query context lives in SoA vectors indexed by a slot id
 * that rides in WorkItems and event payloads. Slots are recycled
 * through a LIFO free list, so the steady path allocates nothing; the
 * backing vectors double (cold) only when the in-flight population
 * exceeds every previous peak.
 *
 * ## Lifetime rules (see DESIGN.md §13)
 *
 * A slot is allocated with an `outstanding` leg count (1 for
 * monolithic queries, 1 + #sparse shards for ElasticRec queries).
 * Every leg accounts for itself exactly once — via accountLeg() when
 * its response lands, or markDead() + accountLeg() when it is lost
 * with a crashed pod. The slot is released only when the count hits
 * zero, so a pending kRpcArrive/kComponentDone event can never refer
 * to a recycled slot: each such event belongs to a leg that has not
 * yet accounted. Dead slots (any leg lost) release without recording
 * a completion, mirroring the closure engine where a lost leg's
 * callback simply never fired.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/units.h"

namespace erec::sim {

class QueryArena
{
  public:
    /** traceRoot() of a query that is not traced. */
    static constexpr std::size_t kUntraced = SIZE_MAX;

    /**
     * Claim a slot for a query arriving at `arrival` with
     * `outstanding` fan-out legs. `trace_root` is the index of a
     * sampled query's root span in the simulation's span vector, or
     * kUntraced.
     */
    ERC_HOT_PATH
    std::uint32_t allocate(SimTime arrival, std::uint32_t outstanding,
                           std::size_t trace_root);

    /** Fold a leg's completion time into the query's last-done time. */
    void
    noteDone(std::uint32_t slot, SimTime done)
    {
        if (done > lastDone_[slot])
            lastDone_[slot] = done;
    }

    /**
     * Account one leg; true when it was the last (the query settled
     * and the caller must release() after reading the slot).
     */
    bool accountLeg(std::uint32_t slot)
    {
        return --outstanding_[slot] == 0;
    }

    /** Mark the query dead: a leg was lost, no completion may be
     *  recorded. The slot still releases once every leg accounts. */
    void markDead(std::uint32_t slot) { dead_[slot] = 1; }
    bool dead(std::uint32_t slot) const { return dead_[slot] != 0; }

    SimTime arrival(std::uint32_t slot) const { return arrival_[slot]; }
    SimTime lastDone(std::uint32_t slot) const
    {
        return lastDone_[slot];
    }
    std::size_t traceRoot(std::uint32_t slot) const
    {
        return traceRoot_[slot];
    }
    bool traced(std::uint32_t slot) const
    {
        return traceRoot_[slot] != kUntraced;
    }

    /** Stop tracing every query in flight (their span vector is being
     *  cleared); they finish untraced. */
    void untraceAll();

    /** Return a settled slot to the free list. */
    ERC_HOT_PATH
    void
    release(std::uint32_t slot)
    {
        // ERC_HOT_PATH_ALLOW("LIFO free-list push reuses capacity reserved by grow(); the list can never exceed the arena's capacity")
        freeList_.push_back(slot);
    }

    /** Total slots ever created (capacity high-water mark). */
    std::size_t capacity() const { return arrival_.size(); }
    /** Slots currently in flight. */
    std::size_t liveCount() const
    {
        return arrival_.size() - freeList_.size();
    }

  private:
    void grow();

    std::vector<SimTime> arrival_;
    std::vector<SimTime> lastDone_;
    std::vector<std::uint32_t> outstanding_;
    std::vector<std::uint8_t> dead_;
    std::vector<std::size_t> traceRoot_;
    std::vector<std::uint32_t> freeList_;
};

} // namespace erec::sim
