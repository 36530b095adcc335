/**
 * @file
 * Open-addressing hash containers for the functional hot paths.
 *
 * The simulator's per-instruction bookkeeping (the generator's
 * pointer/taint word mirrors, the monitors' per-word side tables, the
 * shadow memory's page directory) was built on libstdc++'s node-based
 * `std::unordered_{set,map}`, which allocates one heap node per element
 * and chases a pointer per lookup. AddrMap replaces them with flat
 * power-of-two tables (word sets use sim/wordset.hh): Fibonacci
 * hashing, linear probing, and backward-shift deletion (no
 * tombstones), so the common insert/find/erase cycle touches one or
 * two contiguous cache lines and never allocates after the table has
 * grown to its working size.
 *
 * Determinism contract: these containers are used only through
 * order-independent operations (insert/erase/find/size). Nothing
 * simulation-visible may depend on slot order; forEach() exists for
 * tests and whole-table maintenance whose outcome is order-invariant.
 */

#ifndef FADE_SIM_FLATSET_HH
#define FADE_SIM_FLATSET_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace fade
{

namespace flat_detail
{

/** Fibonacci (multiplicative) hash of an address key. */
constexpr std::uint64_t
mixAddr(Addr k)
{
    return k * 0x9E3779B97F4A7C15ULL;
}

} // namespace flat_detail

/**
 * Flat hash map from addresses to @p V. Capacity is a power of two; the
 * key ~Addr(0) is reserved as the empty-slot sentinel (no simulator
 * address space uses it: application addresses stay far below 2^63 and
 * metadata addresses live at mdBase + appAddr/wordSize). V must be
 * default-constructible and movable (values move during rehash and
 * backward-shift deletion).
 */
template <typename V>
class AddrMap
{
  public:
    explicit AddrMap(std::size_t expected = 0)
    {
        rehash(tableFor(expected));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    V *
    find(Addr k)
    {
        std::size_t i = probe(k);
        return i == npos ? nullptr : &vals_[i];
    }

    const V *
    find(Addr k) const
    {
        std::size_t i = probe(k);
        return i == npos ? nullptr : &vals_[i];
    }

    bool contains(Addr k) const { return probe(k) != npos; }

    /** Value for @p k, default-constructed on first touch. */
    V &
    operator[](Addr k)
    {
        panic_if(k == kEmpty, "AddrMap: reserved sentinel key");
        std::size_t i = home(k);
        while (keys_[i] != kEmpty) {
            if (keys_[i] == k)
                return vals_[i];
            i = (i + 1) & mask_;
        }
        keys_[i] = k;
        vals_[i] = V{};
        ++size_;
        if (overloaded()) {
            rehash(keys_.size() * 2);
            i = probe(k);
        }
        return vals_[i];
    }

    /** @return true when @p k was present and removed. */
    bool
    erase(Addr k)
    {
        panic_if(k == kEmpty, "AddrMap: reserved sentinel key");
        std::size_t i = home(k);
        while (keys_[i] != k) {
            if (keys_[i] == kEmpty)
                return false;
            i = (i + 1) & mask_;
        }
        shiftErase(i);
        --size_;
        return true;
    }

    void
    clear()
    {
        if (size_ == 0)
            return;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmpty)
                vals_[i] = V{};
        }
        keys_.assign(keys_.size(), kEmpty);
        size_ = 0;
    }

    /** Visit every (key, value) pair (order unspecified; tests /
     *  maintenance only — nothing simulation-visible may depend on the
     *  visit order). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmpty)
                fn(keys_[i], vals_[i]);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmpty)
                fn(keys_[i], vals_[i]);
        }
    }

  private:
    static constexpr Addr kEmpty = ~Addr(0);
    static constexpr std::size_t kMinSlots = 16;
    static constexpr std::size_t npos = ~std::size_t(0);

    static std::size_t
    tableFor(std::size_t expected)
    {
        std::size_t n = kMinSlots;
        // Grow threshold is 5/8 load; size the table below it.
        while (expected * 8 >= n * 5)
            n *= 2;
        return n;
    }

    std::size_t home(Addr k) const
    {
        return std::size_t(flat_detail::mixAddr(k)) & mask_;
    }

    bool overloaded() const { return size_ * 8 >= keys_.size() * 5; }

    std::size_t
    probe(Addr k) const
    {
        std::size_t i = home(k);
        while (keys_[i] != kEmpty) {
            if (keys_[i] == k)
                return i;
            i = (i + 1) & mask_;
        }
        return npos;
    }

    /** Backward-shift deletion: close the hole at @p i by moving each
     *  following cluster element whose home lies at or before the hole
     *  (cyclically), preserving every probe invariant without
     *  tombstones. */
    void
    shiftErase(std::size_t i)
    {
        std::size_t hole = i;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            Addr k = keys_[j];
            if (k == kEmpty)
                break;
            std::size_t h = home(k);
            // Move k into the hole unless its home lies cyclically
            // inside (hole, j] — then k is already at or past home.
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                keys_[hole] = k;
                vals_[hole] = std::move(vals_[j]);
                hole = j;
            }
        }
        keys_[hole] = kEmpty;
        vals_[hole] = V{};
    }

    void
    rehash(std::size_t newSlots)
    {
        std::vector<Addr> oldKeys = std::move(keys_);
        std::vector<V> oldVals = std::move(vals_);
        keys_.assign(newSlots, kEmpty);
        vals_.clear();
        vals_.resize(newSlots);
        mask_ = newSlots - 1;
        for (std::size_t s = 0; s < oldKeys.size(); ++s) {
            Addr k = oldKeys[s];
            if (k == kEmpty)
                continue;
            std::size_t i = home(k);
            while (keys_[i] != kEmpty)
                i = (i + 1) & mask_;
            keys_[i] = k;
            vals_[i] = std::move(oldVals[s]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> vals_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace fade

#endif // FADE_SIM_FLATSET_HH
