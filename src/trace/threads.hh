/**
 * @file
 * Deterministic multi-threaded process generator: threads of ONE
 * process placed on different shards of a multi-core system, sharing a
 * heap and synchronizing through locks and thread lifecycle pseudo-ops
 * (EventKind::LockAcquire .. ThreadJoin).
 *
 * The central property is placement invariance: the monitored part of
 * every thread's instruction stream — synchronization pseudo-ops and
 * shared-heap accesses — is a pure function of (profile.seed, tid),
 * spliced from a SyncPlan that every shard rebuilds identically from
 * the seed alone. Unmonitored filler between planned operations comes
 * from a per-thread RNG and touches only thread-private data, so race
 * and taint monitors observe exactly the planned operations in exactly
 * per-thread program order regardless of how threads are distributed
 * across shards, scheduler policy, or execution engine. That is what
 * lets tests demand bit-identical report fingerprints across the whole
 * N x policy x engine x topology matrix (tests/test_threads.cc).
 */

#ifndef FADE_TRACE_THREADS_HH
#define FADE_TRACE_THREADS_HH

#include <cstdint>
#include <vector>

#include "cpu/source.hh"
#include "isa/layout.hh"
#include "sim/random.hh"
#include "trace/profile.hh"

namespace fade
{

/** Shared-heap layout of a process-mode workload. All shards of one
 *  process address the same physical pages (MonitoringSystem disables
 *  its per-shard address salt for these workloads). */
constexpr Addr procSharedBase = heapBase;          ///< lock-guarded words
constexpr Addr procRaceBase = heapBase + 0x10000;  ///< unsynchronized words
constexpr Addr procTaintBase = heapBase + 0x20000; ///< taint hand-off
constexpr Addr procSharedEnd = heapBase + 0x30000;
constexpr Addr procLockBase = heapBase + 0x40000;      ///< lock objects
constexpr Addr procThreadObjBase = heapBase + 0x50000; ///< thread objects

/** Words guarded by one lock (disjoint 4 KiB slices of the shared
 *  region, so lock-ordered accesses can never race). */
constexpr unsigned procWordsPerLock = 1024;

/** Data the cross-shard monitors watch (shared heap of the process). */
constexpr bool
isProcSharedData(Addr a)
{
    return a >= procSharedBase && a < procSharedEnd;
}

/** PCs of planned operations (one global code region, indexed by plan
 *  construction order — invariant across placements). */
constexpr Addr procPlanPcBase = 0x00800000;

/**
 * The process's global synchronization/sharing plan: per-thread scripts
 * of planned instructions, each preceded by a fixed number of filler
 * instructions. Built identically on every shard from the profile seed.
 * Plan construction order is a total order consistent with per-thread
 * program order, per-lock acquisition order, and create/join edges, so
 * a greedy readiness-driven merge of the per-thread logs always makes
 * progress (monitor/interleave.cc relies on this).
 */
struct SyncPlan
{
    struct Step
    {
        unsigned gap = 0; ///< filler instructions before inst
        Instruction inst;
    };

    std::vector<std::vector<Step>> perThread;

    static SyncPlan build(const BenchProfile &p);
};

/** Instructions one thread must execute (filler included) to finish
 *  every planned operation of its script. Tests size their runs so
 *  every hosted thread crosses this horizon on every shard count. */
std::uint64_t threadedPlanHorizon(const BenchProfile &p);

/**
 * Instruction source for the threads a shard hosts: thread t of the
 * process runs on shard t % procShards, hosted threads interleave on
 * the shard's core in fixed round-robin quanta (the classic time-slice
 * model, as TraceGenerator's multithreaded profiles).
 */
class ThreadedSource : public InstSource
{
  public:
    explicit ThreadedSource(const BenchProfile &p);

    /** Never runs dry: the next fetchSpan(n) serves all n. */
    std::size_t stageRun(std::size_t n) override { return n; }

    /** Synthesize the next @p max instructions (round-robin quanta
     *  over the hosted threads) into the span buffer. */
    InstSpan fetchSpan(std::size_t max) override;

    const WorkloadLayout &layout() const { return layout_; }

  private:
    struct Hosted
    {
        ThreadId tid = 0;
        Rng rng{1};    ///< filler stream, seeded from (seed, tid)
        Addr pc = 0;   ///< filler pc cursor (per-thread code region)
        Addr priv = 0; ///< thread-private data region
        std::vector<SyncPlan::Step> script;
        std::size_t step = 0;   ///< next planned op
        unsigned gapLeft = 0;   ///< filler before the next planned op
        double propFrac = 0.55; ///< mayPropagate fraction for filler
        double mispredict = 0.05;
    };

    Instruction filler(Hosted &h);

    std::vector<Hosted> hosted_;
    /** The span fetchSpan() hands out (valid until its next call). */
    std::vector<Instruction> span_;
    std::size_t cur_ = 0;
    unsigned quantum_ = 64;
    unsigned left_ = 64;
    WorkloadLayout layout_;
};

} // namespace fade

#endif // FADE_TRACE_THREADS_HH
