/**
 * @file
 * Bounded FIFO with occupancy instrumentation. Models the decoupling
 * queues of the monitoring system: the 32-entry event queue between the
 * application core and FADE, and the 16-entry unfiltered event queue
 * between FADE and the monitor (Sections 3.2 and 3.4 of the paper).
 *
 * Entries live in a RingDeque sized to the capacity, so a bounded queue
 * allocates once, at construction, and an unbounded one grows by
 * doubling. popRun() retires several entries at once and is accounted
 * exactly as that many pop() calls.
 */

#ifndef FADE_SIM_QUEUE_HH
#define FADE_SIM_QUEUE_HH

#include <cstddef>
#include <utility>

#include "sim/ring.hh"
#include "sim/stats.hh"

namespace fade
{

/**
 * A bounded FIFO. Capacity 0 means unbounded (used for the infinite
 * event-queue occupancy study of Fig. 3(a,b)). Occupancy is sampled into
 * a log2 histogram on every push, matching the paper's methodology of
 * recording the queue depth seen by each arriving event.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity = 0)
        : capacity_(capacity), ring_(capacity)
    {}

    /** True when a push would be rejected. */
    bool
    full() const
    {
        return capacity_ != 0 && ring_.size() >= capacity_;
    }

    bool empty() const { return ring_.empty(); }
    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * Append an entry.
     * @return false (and counts a rejection) when the queue is full.
     */
    bool
    push(const T &v)
    {
        T *slot = pushSlot();
        if (!slot)
            return false;
        *slot = v;
        return true;
    }

    /**
     * Claim the next back slot for in-place construction — the single
     * accounting path push() delegates to (rejection count when full,
     * occupancy sample on acceptance). The caller owns filling the
     * slot before the entry is observed.
     * @return the slot, or nullptr (and one counted rejection) when
     *         full.
     */
    T *
    pushSlot()
    {
        if (full()) {
            ++rejects_;
            return nullptr;
        }
        T &slot = ring_.pushSlot();
        ++pushes_;
        occupancy_.sample(ring_.size());
        return &slot;
    }

    /** Front entry; queue must be non-empty. */
    const T &front() const { return ring_.front(); }
    T &front() { return ring_.front(); }

    /** Remove and return the front entry; queue must be non-empty. */
    T
    pop()
    {
        T v = std::move(ring_.front());
        ring_.pop_front();
        ++pops_;
        return v;
    }

    /**
     * Remove up to @p n front entries, discarding them. Equivalent to
     * (and accounted exactly as) min(n, size()) pop() calls; pops never
     * sample the occupancy histogram. FADE and the steering stage use
     * popRun(1) to retire a head they already copied out.
     * @return the number of entries removed.
     */
    std::size_t
    popRun(std::size_t n)
    {
        std::size_t k = n < ring_.size() ? n : ring_.size();
        for (std::size_t i = 0; i < k; ++i)
            ring_.pop_front();
        pops_ += k;
        return k;
    }

    void clear() { ring_.clear(); }

    /**
     * Account one entry that transited this queue without ever being
     * stored in it: one push, one pop, and an occupancy sample of
     * @p occupancy — the depth the run-grain engine's timing model
     * computed for the arrival (system/rungrain.hh). The engine
     * extracts events into its own span buffer, so the architectural
     * queue's statistics are driven from modeled time instead of the
     * (always-empty) host-side state.
     */
    void
    accountTransit(std::size_t occupancy)
    {
        ++pushes_;
        ++pops_;
        occupancy_.sample(occupancy);
    }

    std::uint64_t pushes() const { return pushes_; }
    std::uint64_t pops() const { return pops_; }
    std::uint64_t rejects() const { return rejects_; }
    const Log2Histogram &occupancy() const { return occupancy_; }

    void
    resetStats()
    {
        pushes_ = pops_ = rejects_ = 0;
        occupancy_.reset();
    }

  private:
    std::size_t capacity_;
    RingDeque<T> ring_;
    std::uint64_t pushes_ = 0;
    std::uint64_t pops_ = 0;
    std::uint64_t rejects_ = 0;
    Log2Histogram occupancy_;
};

} // namespace fade

#endif // FADE_SIM_QUEUE_HH
