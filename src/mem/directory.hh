/**
 * @file
 * NUMA-style home-node directory over address-interleaved shared-L2
 * slices. The flat multi-core system put every shard behind one shared
 * L2; the clustered topology (system/topology.hh) instead gives each
 * cluster of shards its own shared-L2 slice and routes every L2-bound
 * access to the *home* slice of its address:
 *
 *   home(addr) = hash(block address) mod clusters
 *
 * A shard reaching its own cluster's slice pays the slice's normal
 * latency; reaching a remote cluster's slice adds a fixed
 * cluster-interconnect penalty (DirectoryParams::remoteLatency). The
 * directory is a timing model only — like the caches it sits behind, it
 * tracks no data, just residency, latency, and routing counters.
 *
 * With one cluster the directory degenerates exactly to the flat
 * system: every address is home, the penalty is never added, and the
 * single slice sees the identical access stream — which is the
 * bit-identity argument for the 1-cluster case (docs/TOPOLOGY.md).
 *
 * Thread-safety contract: HomeDirectory is immutable during scheduler
 * slices (its slices are mutated only at slice barriers, like the flat
 * shared L2). Each shard routes through its own DirectoryPort, which is
 * only ever touched by the one thread driving that shard, so the
 * per-port routing counters need no synchronization.
 */

#ifndef FADE_MEM_DIRECTORY_HH
#define FADE_MEM_DIRECTORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hh"

namespace fade
{

/** Geometry and latency of the clustered last-level cache. */
struct DirectoryParams
{
    /** Number of shared-L2 slices (one per cluster). */
    unsigned clusters = 1;
    /** Extra cycles for an access whose home slice is a remote
     *  cluster's (cluster-interconnect hop, both ways folded in). */
    unsigned remoteLatency = 40;
    /** Per-slice geometry (total LLC capacity scales with clusters,
     *  as each cluster brings its own slice). */
    CacheParams slice = l2Params();
    /** Miss latency past a slice (DRAM). */
    unsigned memLatency = dramLatency;
};

/**
 * The home-node directory: owns one last-level Cache slice per cluster
 * and maps block addresses to their home slice with a mixed hash, so
 * hot blocks spread across slices regardless of stride.
 */
class HomeDirectory
{
  public:
    explicit HomeDirectory(const DirectoryParams &p);

    unsigned numSlices() const { return unsigned(slices_.size()); }
    Cache &slice(unsigned c) { return *slices_.at(c); }
    const Cache &slice(unsigned c) const { return *slices_.at(c); }

    /** Home slice of @p addr (block-granular; pure). */
    unsigned
    home(Addr addr) const
    {
        if (slices_.size() == 1)
            return 0;
        // Fibonacci mix of the block number; high bits decide so that
        // strided block sequences do not all land on one slice.
        std::uint64_t h =
            (addr >> blockShift_) * 0x9E3779B97F4A7C15ULL;
        return unsigned((h >> 33) % slices_.size());
    }

    unsigned remoteLatency() const { return params_.remoteLatency; }
    const DirectoryParams &params() const { return params_; }

    /** Zero every slice's hit/miss counters. */
    void resetStats();

  private:
    DirectoryParams params_;
    unsigned blockShift_;
    std::vector<std::unique_ptr<Cache>> slices_;
};

/** Per-shard routing counters (deterministic simulated values). */
struct DirectoryPortStats
{
    /** Accesses whose home slice is the shard's own cluster's. */
    std::uint64_t localAccesses = 0;
    /** Accesses routed to a remote cluster's slice (penalty paid). */
    std::uint64_t remoteAccesses = 0;
};

/**
 * One shard's route into the clustered LLC. Sits where the flat system
 * put the shared L2: the shard's L1s and MD cache point at this port,
 * which forwards each access to the home slice — either the real slice
 * caches (direct mode, used outside scheduled runs) or the shard's
 * per-slice SliceL2Views (scheduler slices; see system/scheduler.hh).
 */
class DirectoryPort : public MemPort
{
  public:
    /**
     * @param dir   the directory (routing + real slices)
     * @param home  the cluster this shard belongs to
     */
    DirectoryPort(HomeDirectory &dir, unsigned home);

    /** Route slice @p c through @p p (a SliceL2View), or back to the
     *  real slice when @p p is null. */
    void setSlicePort(unsigned c, MemPort *p);

    /** Route every slice back to the real caches (direct mode). */
    void routeToBase();

    unsigned access(Addr addr, bool write) override;

    const DirectoryPortStats &stats() const { return stats_; }
    void resetStats() { stats_ = DirectoryPortStats{}; }

  private:
    HomeDirectory &dir_;
    unsigned my_;
    std::vector<MemPort *> ports_;
    DirectoryPortStats stats_;
};

} // namespace fade

#endif // FADE_MEM_DIRECTORY_HH
