#include "mem/mdcache.hh"

namespace fade
{

MdCache::MdCache(const MdCacheParams &p, MemPort *nextLevel)
    : params_(p),
      cache_([&p] {
          CacheParams cp;
          cp.name = "mdcache";
          cp.sizeBytes = p.sizeBytes;
          cp.ways = p.ways;
          cp.blockBytes = p.blockBytes;
          cp.latency = p.latency;
          return cp;
      }(), nextLevel, dramLatency),
      tlb_(p.tlbEntries)
{
}

bool
MdCache::tlbLookup(Addr appPage)
{
    ++tlbClock_;
    for (auto &e : tlb_) {
        if (e.valid && e.appPage == appPage) {
            e.lru = tlbClock_;
            return true;
        }
    }
    ++tlbMisses_;
    return false;
}

void
MdCache::tlbInsert(Addr appPage)
{
    TlbEntry *victim = &tlb_[0];
    for (auto &e : tlb_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    victim->valid = true;
    victim->appPage = appPage;
    victim->lru = tlbClock_;
}

MdAccessResult
MdCache::accessApp(Addr appAddr, bool write)
{
    MdAccessResult r;
    Addr appPage = pageAlign(appAddr);
    if (!tlbLookup(appPage)) {
        r.tlbMiss = true;
        r.latency += params_.tlbMissPenalty;
        tlbInsert(appPage);
    }
    Addr mdAddr = mdAddrOf(appAddr);
    std::uint64_t before = cache_.misses();
    r.latency += cache_.access(mdAddr, write);
    r.cacheMiss = cache_.misses() != before;
    return r;
}

MdAccessResult
MdCache::accessMd(Addr mdAddr, bool write)
{
    MdAccessResult r;
    std::uint64_t before = cache_.misses();
    r.latency += cache_.access(mdAddr, write);
    r.cacheMiss = cache_.misses() != before;
    return r;
}

void
MdCache::warm(Addr appAddr)
{
    Addr appPage = pageAlign(appAddr);
    if (!tlbLookup(appPage))
        tlbInsert(appPage);
    cache_.touch(mdAddrOf(appAddr));
    // Warmup accesses should not perturb statistics.
    tlbMisses_ = 0;
}

void
MdCache::flush()
{
    cache_.flush();
    for (auto &e : tlb_)
        e.valid = false;
}

} // namespace fade
