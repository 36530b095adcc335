/**
 * @file
 * Bounded FIFO with occupancy instrumentation. Models the decoupling
 * queues of the monitoring system: the 32-entry event queue between the
 * application core and FADE, and the 16-entry unfiltered event queue
 * between FADE and the monitor (Sections 3.2 and 3.4 of the paper).
 *
 * Storage is a ring buffer (bounded queues allocate exactly once, at
 * construction; unbounded queues grow by doubling), replacing the
 * per-block churn of the previous std::deque implementation on the
 * event-transport hot path. popRun() retires several entries at once
 * and is accounted exactly as that many pop() calls.
 */

#ifndef FADE_SIM_QUEUE_HH
#define FADE_SIM_QUEUE_HH

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/logging.hh"
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
        : capacity_(capacity), buf_(capacity ? capacity : minUnboundedSlots)
    {}

    /** True when a push would be rejected. */
    bool
    full() const
    {
        return capacity_ != 0 && count_ >= capacity_;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
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
        if (count_ == buf_.size())
            grow();
        T *slot = &buf_[wrap(head_ + count_)];
        ++count_;
        ++pushes_;
        occupancy_.sample(count_);
        return slot;
    }

    /** Front entry; queue must be non-empty. */
    const T &
    front() const
    {
        panic_if(empty(), "front() on empty queue");
        return buf_[head_];
    }

    T &
    front()
    {
        panic_if(empty(), "front() on empty queue");
        return buf_[head_];
    }

    /** Remove and return the front entry; queue must be non-empty. */
    T
    pop()
    {
        panic_if(empty(), "pop() on empty queue");
        T v = std::move(buf_[head_]);
        head_ = wrap(head_ + 1);
        --count_;
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
        std::size_t k = n < count_ ? n : count_;
        head_ = wrap(head_ + k);
        count_ -= k;
        pops_ += k;
        return k;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /** Iteration support (associative searches in tests/tools). */
    template <typename Q, typename V>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = V *;
        using reference = V &;

        Iter(Q *q, std::size_t i) : q_(q), i_(i) {}
        V &operator*() const { return q_->buf_[q_->wrap(q_->head_ + i_)]; }
        V *operator->() const { return &**this; }
        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator==(const Iter &o) const
        {
            return q_ == o.q_ && i_ == o.i_;
        }
        bool operator!=(const Iter &o) const { return !(*this == o); }

      private:
        Q *q_;
        std::size_t i_;
    };
    using iterator = Iter<BoundedQueue, T>;
    using const_iterator = Iter<const BoundedQueue, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

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
    static constexpr std::size_t minUnboundedSlots = 16;

    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    /** Unbounded queues double their storage, re-linearized. */
    void
    grow()
    {
        std::vector<T> next(buf_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::size_t capacity_;
    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t pushes_ = 0;
    std::uint64_t pops_ = 0;
    std::uint64_t rejects_ = 0;
    Log2Histogram occupancy_;
};

} // namespace fade

#endif // FADE_SIM_QUEUE_HH
