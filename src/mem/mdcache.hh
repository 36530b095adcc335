/**
 * @file
 * The dedicated metadata cache (MD cache) with its metadata TLB, as in
 * Section 4.1 / Table 1 of the paper: 4KB, 2-way, one-cycle access, with
 * a 16-entry M-TLB translating application virtual pages to the monitor
 * pages holding the associated metadata. M-TLB misses are serviced in
 * software (modelled as a fixed penalty charged to the access).
 */

#ifndef FADE_MEM_MDCACHE_HH
#define FADE_MEM_MDCACHE_HH

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/shadow.hh"
#include "sim/types.hh"

namespace fade
{

/** Configuration for the MD cache and its TLB. */
struct MdCacheParams
{
    std::uint64_t sizeBytes = 4 * 1024;
    unsigned ways = 2;
    unsigned blockBytes = 64;
    unsigned latency = 1;
    unsigned tlbEntries = 16;
    /** Cycles to service an M-TLB miss in software. */
    unsigned tlbMissPenalty = 40;
};

/** Outcome of one MD cache access. */
struct MdAccessResult
{
    unsigned latency = 0;
    bool cacheMiss = false;
    bool tlbMiss = false;
};

/**
 * MD cache: a small cache indexed by metadata addresses, fronted by the
 * M-TLB that maps application pages to metadata pages. Backed by the
 * shared L2 on misses.
 */
class MdCache
{
  public:
    MdCache(const MdCacheParams &p, MemPort *nextLevel);

    /**
     * Access the metadata of an application address.
     * Folds the M-TLB translation into the access as the paper does.
     */
    MdAccessResult accessApp(Addr appAddr, bool write);

    /**
     * Access a raw metadata address (used by the SUU, which computes
     * metadata block addresses itself).
     */
    MdAccessResult accessMd(Addr mdAddr, bool write);

    /** Pre-warm translation and block residency. */
    void warm(Addr appAddr);

    /** Per-shard address-space salt (see Cache::setAddrSalt). */
    void setAddrSalt(std::uint64_t salt) { cache_.setAddrSalt(salt); }

    /** Retarget the backing level (slice scheduling; see
     *  Cache::setNext). */
    void setNext(MemPort *next) { cache_.setNext(next); }

    void flush();

    std::uint64_t tlbMisses() const { return tlbMisses_; }
    const Cache &cache() const { return cache_; }
    const MdCacheParams &params() const { return params_; }

    void
    resetStats()
    {
        tlbMisses_ = 0;
        cache_.resetStats();
    }

  private:
    bool tlbLookup(Addr appPage);
    void tlbInsert(Addr appPage);

    struct TlbEntry
    {
        Addr appPage = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    MdCacheParams params_;
    Cache cache_;
    std::vector<TlbEntry> tlb_;
    std::uint64_t tlbClock_ = 0;
    std::uint64_t tlbMisses_ = 0;
};

} // namespace fade

#endif // FADE_MEM_MDCACHE_HH
