#include "mem/cache.hh"

#include "sim/logging.hh"

namespace fade
{

Cache::Cache(const CacheParams &p, MemPort *next, unsigned memLatency)
    : params_(p), next_(next), memLatency_(memLatency)
{
    fatal_if(p.blockBytes == 0 || (p.blockBytes & (p.blockBytes - 1)),
             "cache ", p.name, ": block size must be a power of two");
    fatal_if(p.ways == 0, "cache ", p.name, ": needs at least one way");
    std::uint64_t blocks = p.sizeBytes / p.blockBytes;
    fatal_if(blocks % p.ways != 0,
             "cache ", p.name, ": size/block not divisible by ways");
    numSets_ = static_cast<unsigned>(blocks / p.ways);
    fatal_if(numSets_ == 0 || (numSets_ & (numSets_ - 1)),
             "cache ", p.name, ": set count must be a power of two");
    // Both divisors are power-of-two-checked above: precompute shift
    // widths so the per-access index/tag math never divides.
    blockShift_ = log2of(p.blockBytes);
    setShift_ = log2of(numSets_);
    lines_.assign(std::size_t(numSets_) * p.ways, Line{});
}

unsigned
Cache::log2of(std::uint64_t powerOfTwo)
{
    unsigned s = 0;
    while ((std::uint64_t(1) << s) < powerOfTwo)
        ++s;
    return s;
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> blockShift_) & (numSets_ - 1));
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return addr >> (blockShift_ + setShift_);
}

bool
Cache::accessSet(Line *set, unsigned ways, std::uint64_t tag,
                 std::uint64_t lruClock)
{
    for (unsigned w = 0; w < ways; ++w) {
        Line &line = set[w];
        if (line.lru != 0 && line.tag == tag) {
            line.lru = lruClock;
            return true;
        }
    }
    // An invalid way (stamp 0) is older than every valid one, so the
    // first least-recent way is the first invalid way if there is one.
    Line *victim = &set[0];
    for (unsigned w = 0; w < ways && victim->lru != 0; ++w)
        if (set[w].lru < victim->lru)
            victim = &set[w];
    victim->tag = tag;
    victim->lru = lruClock;
    return false;
}

unsigned
Cache::access(Addr addr, bool write)
{
    addr ^= addrSalt_;
    ++lruClock_;
    if (accessSet(setLines(setIndex(addr)), params_.ways, tagOf(addr),
                  lruClock_)) {
        ++hits_;
        return params_.latency;
    }
    ++misses_;
    unsigned below = next_ ? next_->access(addr, write) : memLatency_;
    return params_.latency + below;
}

bool
Cache::contains(Addr addr) const
{
    addr ^= addrSalt_;
    const Line *set = setLines(setIndex(addr));
    std::uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w)
        if (set[w].lru != 0 && set[w].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line.lru = 0;
}

void
Cache::touch(Addr addr)
{
    addr ^= addrSalt_;
    ++lruClock_;
    accessSet(setLines(setIndex(addr)), params_.ways, tagOf(addr),
              lruClock_);
}

SliceL2View::SliceL2View(Cache &base) : base_(base)
{
    // A view freezes only its base; a miss that recursed into a lower
    // level would mutate shared state from worker threads.
    fatal_if(base.next_ != nullptr,
             "SliceL2View requires a last-level base cache");
    beginEpoch();
}

unsigned
SliceL2View::access(Addr addr, bool write)
{
    (void)write; // tag-only model: reads and writes age lines alike
    log_.push_back(addr);

    // Same salting and clocking as Cache::access, applied to the
    // copy-on-write copy of the set; the lookup/replacement policy
    // itself is the shared Cache::accessSet, so it cannot drift.
    Addr a = addr ^ base_.addrSalt_;
    unsigned si = base_.setIndex(a);
    auto it = cow_.find(si);
    if (it == cow_.end()) {
        const Cache::Line *src = base_.setLines(si);
        it = cow_.emplace(si, std::vector<Cache::Line>(
                                  src, src + base_.params_.ways))
                 .first;
    }
    ++lruClock_;

    if (Cache::accessSet(it->second.data(), base_.params_.ways,
                         base_.tagOf(a), lruClock_)) {
        ++hits_;
        return base_.params_.latency;
    }
    ++misses_;
    return base_.params_.latency + base_.memLatency_;
}

void
SliceL2View::commit()
{
    for (Addr addr : log_)
        base_.touch(addr);
    base_.hits_ += hits_;
    base_.misses_ += misses_;
    log_.clear();
}

void
SliceL2View::beginEpoch()
{
    cow_.clear();
    log_.clear();
    hits_ = misses_ = 0;
    lruClock_ = base_.lruClock_;
}

CacheParams
l1Params(const std::string &name)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = 32 * 1024;
    p.ways = 2;
    p.blockBytes = 64;
    p.latency = 2;
    return p;
}

CacheParams
l2Params()
{
    CacheParams p;
    p.name = "l2";
    p.sizeBytes = 2 * 1024 * 1024;
    p.ways = 16;
    p.blockBytes = 64;
    p.latency = 10;
    return p;
}

} // namespace fade
