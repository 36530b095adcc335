/**
 * @file
 * Set-associative cache timing model with LRU replacement. Caches form a
 * linked hierarchy (L1 -> shared L2 -> DRAM latency), per Table 1 of the
 * paper: 32KB 2-way 2-cycle L1s, 2MB 16-way 10-cycle shared L2, 90-cycle
 * DRAM.
 *
 * For the parallel shard scheduler, a level can be fronted by a
 * SliceL2View: a copy-on-write overlay that lets one shard run a bounded
 * slice against a frozen snapshot of the shared level while logging its
 * traffic, which the scheduler replays into the real level at the slice
 * barrier in fixed shard order (see system/scheduler.hh).
 */

#ifndef FADE_MEM_CACHE_HH
#define FADE_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace fade
{

/** Configuration for one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 2;
    unsigned blockBytes = 64;
    unsigned latency = 2; ///< hit latency in cycles
};

/**
 * Anything that can service a timing access from the level above: a
 * Cache, or a SliceL2View interposed on the path to a shared cache.
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * Access a byte address.
     * @return total latency in cycles including lower levels.
     */
    virtual unsigned access(Addr addr, bool write) = 0;
};

/**
 * Tag-only cache timing model. Data values live in functional state
 * elsewhere; this model only decides hit/miss and accumulates latency
 * down the hierarchy.
 *
 * Thread-safety: none. A cache may only be accessed by one thread at a
 * time; the parallel shard scheduler keeps the shared L2 frozen during
 * slices (shards access it through per-shard SliceL2Views) and mutates
 * it only at slice barriers, on the scheduler thread.
 */
class Cache : public MemPort
{
  public:
    /**
     * @param p           geometry and latency
     * @param next        next level, or nullptr for the last level
     * @param memLatency  miss latency past the last level (DRAM)
     */
    Cache(const CacheParams &p, MemPort *next = nullptr,
          unsigned memLatency = 90);

    /**
     * Access a byte address. Allocates on miss (write-allocate).
     * @return total latency in cycles including lower levels.
     */
    unsigned access(Addr addr, bool write) override;

    /** Probe without updating state. */
    bool contains(Addr addr) const;

    /**
     * Disambiguate per-shard address spaces: a multi-core system gives
     * each shard's private caches a distinct salt (high bits above any
     * application address), XORed into every address before lookup and
     * before it propagates to the shared next level. Different shards'
     * identical virtual addresses then occupy distinct lines in the
     * shared L2, as distinct physical pages would.
     */
    void setAddrSalt(std::uint64_t salt) { addrSalt_ = salt; }

    /**
     * Retarget the next level. The shard scheduler uses this to swap a
     * SliceL2View onto the L1 -> L2 path for the duration of a
     * scheduled run and to restore the direct path afterwards.
     */
    void setNext(MemPort *next) { next_ = next; }

    /** Invalidate the whole cache (tests / reset). */
    void flush();

    /** Pre-load a block as resident (warmup support). Also the replay
     *  primitive of SliceL2View::commit: updates residency and LRU
     *  exactly like access() without touching hit/miss statistics. */
    void touch(Addr addr);

    const CacheParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        std::uint64_t n = hits_ + misses_;
        return n ? static_cast<double>(misses_) / n : 0.0;
    }

    void
    resetStats()
    {
        hits_ = misses_ = 0;
    }

  private:
    friend class SliceL2View;

    /** A tag and its LRU stamp. Stamps start at 1 (the clock is
     *  bumped before every access), so stamp 0 marks an invalid way:
     *  16 bytes, which keeps a 2MB L2 slice's array at 512KB. */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0; ///< 0 = invalid
    };
    static_assert(sizeof(Line) == 16, "Cache::Line is a tag + stamp");

    static unsigned log2of(std::uint64_t powerOfTwo);
    unsigned setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;

    /**
     * The single lookup/replacement policy implementation, shared by
     * access(), touch() and SliceL2View::access so the three paths
     * cannot drift: LRU-bump on hit, else fill the first invalid way
     * or evict the LRU way. @p set points at @p ways contiguous lines.
     * @return true on hit.
     */
    static bool accessSet(Line *set, unsigned ways, std::uint64_t tag,
                          std::uint64_t lruClock);

    /** First line of a set (sets live back-to-back in one flat array,
     *  so an access touches one contiguous stretch of lines). */
    Line *setLines(unsigned setIdx) { return &lines_[setIdx * params_.ways]; }
    const Line *
    setLines(unsigned setIdx) const
    {
        return &lines_[setIdx * params_.ways];
    }

    CacheParams params_;
    MemPort *next_;
    unsigned memLatency_;
    std::uint64_t addrSalt_ = 0;
    unsigned numSets_;
    unsigned blockShift_ = 0; ///< log2(blockBytes)
    unsigned setShift_ = 0;   ///< log2(numSets_)
    std::vector<Line> lines_; ///< numSets_ * ways, set-major
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Slice-local view of a shared cache level, the concurrency mechanism
 * of the parallel shard scheduler (system/scheduler.hh).
 *
 * During a slice the underlying cache is frozen: the view services its
 * shard's accesses against copy-on-write copies of the sets it touches
 * (seeded from the base at first touch), applying exactly the lookup /
 * fill / LRU policy of Cache::access, and logs every access. At the
 * slice barrier the scheduler calls commit() on each view in fixed
 * shard order: the log is replayed into the base via Cache::touch and
 * the view's hit/miss counts are folded into the base counters. After
 * all views have committed, beginEpoch() rebases each view onto the
 * merged state for the next slice.
 *
 * Because a slice's outcome depends only on the base state at the slice
 * barrier plus the shard's own accesses, the merged result is identical
 * whether the slices of different shards execute sequentially or on
 * concurrent host threads — this is what makes the ParallelBatched
 * scheduler policy bit-identical to Lockstep. With a single shard the
 * view is exact: replaying the log reproduces precisely the state and
 * statistics direct execution would have produced, which keeps the N=1
 * sharded system bit-identical to the legacy single-core system.
 *
 * Thread-safety contract: between beginEpoch() and commit(), access()
 * may be called from one worker thread while other views of the same
 * base do the same; the base must not be mutated. commit() and
 * beginEpoch() must be called with all workers quiescent (the slice
 * barrier), from a single thread.
 */
class SliceL2View : public MemPort
{
  public:
    /** @param base  shared last-level cache (must have no next level) */
    explicit SliceL2View(Cache &base);

    /** Service one access against the overlay (worker thread). */
    unsigned access(Addr addr, bool write) override;

    /** Replay this slice's traffic into the base (barrier, shard
     *  order). */
    void commit();

    /** Drop the overlay and rebase on the merged state (barrier, after
     *  every view has committed). */
    void beginEpoch();

  private:
    Cache &base_;
    /** Copy-on-write set copies, keyed by set index. */
    std::unordered_map<unsigned, std::vector<Cache::Line>> cow_;
    /** Access log (original addresses, in order). */
    std::vector<Addr> log_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Standard hierarchy parameters from Table 1. */
CacheParams l1Params(const std::string &name);
CacheParams l2Params();

/** DRAM latency from Table 1. */
constexpr unsigned dramLatency = 90;

} // namespace fade

#endif // FADE_MEM_CACHE_HH
