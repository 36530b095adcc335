/**
 * @file
 * Growable ring-buffer deque. The trace generator stages pending
 * instructions (allocator bookkeeping, init stores, spills) through a
 * FIFO that sees one push and one pop for a large fraction of all
 * generated instructions, every core keeps its reorder buffer in one,
 * and BoundedQueue (sim/queue.hh) keeps the decoupling queues' entries
 * in one; std::deque pays block-map indirection and block churn on
 * exactly those paths. RingDeque keeps the live window in one contiguous
 * power-of-two buffer: push/pop are an index bump against a cached
 * mask, and the buffer doubles (rarely) when full. Mid-insertion is
 * supported for the generator's cold splice paths (startup mallocs,
 * bug injection).
 */

#ifndef FADE_SIM_RING_HH
#define FADE_SIM_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace fade
{

/** FIFO ring with amortized O(1) push_back/pop_front. */
template <typename T>
class RingDeque
{
  public:
    explicit RingDeque(std::size_t initialSlots = 64)
        : buf_(roundUp(initialSlots)), mask_(buf_.size() - 1)
    {}

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &
    front()
    {
        panic_if(empty(), "front() on empty RingDeque");
        return buf_[head_];
    }

    const T &
    front() const
    {
        panic_if(empty(), "front() on empty RingDeque");
        return buf_[head_];
    }

    void
    pop_front()
    {
        panic_if(empty(), "pop_front() on empty RingDeque");
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void
    push_back(const T &v)
    {
        if (count_ > mask_)
            grow();
        buf_[(head_ + count_) & mask_] = v;
        ++count_;
    }

    void
    push_back(T &&v)
    {
        if (count_ > mask_)
            grow();
        buf_[(head_ + count_) & mask_] = std::move(v);
        ++count_;
    }

    /** Claim the next back slot and return it for in-place filling —
     *  spares the temporary of push_back({...}) on hot paths. */
    T &
    pushSlot()
    {
        if (count_ > mask_)
            grow();
        T &slot = buf_[(head_ + count_) & mask_];
        ++count_;
        return slot;
    }

    /** Element @p i positions behind the front (0 = front). */
    T &
    at(std::size_t i)
    {
        panic_if(i >= count_, "RingDeque index out of range");
        return buf_[(head_ + i) & mask_];
    }

    /**
     * Insert @p v so it becomes element @p idx (0 = new front). Cold
     * path — O(n) shift — used only for stream splices (startup
     * allocations, injected bugs).
     */
    void
    insert(std::size_t idx, const T &v)
    {
        panic_if(idx > count_, "RingDeque insert out of range");
        push_back(v); // reserves space; value overwritten below
        for (std::size_t i = count_ - 1; i > idx; --i)
            at(i) = std::move(at(i - 1));
        at(idx) = v;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    static std::size_t
    roundUp(std::size_t n)
    {
        std::size_t p = 16;
        while (p < n)
            p *= 2;
        return p;
    }

    void
    grow()
    {
        std::vector<T> next(buf_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(buf_[(head_ + i) & mask_]);
        buf_ = std::move(next);
        mask_ = buf_.size() - 1;
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace fade

#endif // FADE_SIM_RING_HH
