/**
 * @file
 * Parallel batched shard scheduler. PR 1's MultiCoreSystem ticked its
 * shards in lockstep on one host thread, so simulated cores scaled
 * while wall-clock did not. This scheduler decouples the shards the
 * same way FADE decouples the application core from the monitor —
 * through bounded buffering with deferred, ordered merging:
 *
 *  - Each {core, event queue, FADE, MD cache, monitor} shard advances
 *    in bounded slices (SchedulerConfig::sliceTicks cycles per slice).
 *  - Within a slice a shard is fully self-contained: the shared
 *    last-level cache — one slice per cluster behind the home-node
 *    directory (mem/directory.hh) — is reached through the shard's
 *    DirectoryPort routing into one SliceL2View per slice
 *    (mem/cache.hh), each reading a frozen snapshot and logging the
 *    shard's traffic.
 *  - At the slice barrier the scheduler replays every shard's logs
 *    into the real slices in fixed shard order (slices in index order
 *    within a shard) and folds the slice's hit/miss counts into the
 *    shared counters, then rebases all views on the merged state.
 *
 * Determinism argument: a slice's outcome is a pure function of (L2
 * state at the last barrier, the shard's own private state), so the
 * interleaving of host threads cannot influence any simulated value,
 * and the barrier merge is executed in fixed shard order on one
 * thread. Hence SchedulerPolicy::ParallelBatched produces bit-identical
 * per-shard and aggregate statistics to SchedulerPolicy::Lockstep,
 * which runs the very same slice protocol sequentially. Cross-shard L2
 * interference (evictions between shards) is modelled at slice
 * granularity rather than cycle granularity — the standard
 * bound-and-weave trade made by parallel architecture simulators.
 *
 * With one shard the slice protocol is exact, not just deterministic:
 * the merged L2 state and statistics equal direct execution bit for
 * bit, which keeps the N=1 sharded system identical to the legacy
 * single-core MonitoringSystem for every policy and slice size.
 */

#ifndef FADE_SYSTEM_SCHEDULER_HH
#define FADE_SYSTEM_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "sim/stats.hh"
#include "system/system.hh"

namespace fade
{

/** How the scheduler executes the slices of one epoch. */
enum class SchedulerPolicy : std::uint8_t
{
    /** Slices run sequentially in shard order on the calling thread.
     *  The reference semantics; zero threading. */
    Lockstep,
    /** Slices run concurrently on a persistent worker pool; merge at
     *  the barrier is unchanged. Bit-identical to Lockstep. */
    ParallelBatched,
};

/** Scheduler knobs (MultiCoreConfig::scheduler). */
struct SchedulerConfig
{
    SchedulerPolicy policy = SchedulerPolicy::Lockstep;
    /**
     * Cycles each shard advances between barriers. Larger slices
     * amortize barrier synchronization (better host scaling) but
     * coarsen cross-shard L2 interference; 1k-10k is the useful range.
     * Simulated results depend on this value (interference
     * granularity) but never on the policy or host thread count.
     */
    std::uint64_t sliceTicks = 4096;
    /** Worker threads for ParallelBatched; 0 = one per shard, capped
     *  at the host's hardware concurrency. */
    unsigned hostThreads = 0;
};

/** Host-side accounting of one scheduler (simulation-invisible). */
struct SchedulerStats
{
    /** Slice barriers executed. */
    std::uint64_t epochs = 0;
    /** Shard-slices executed (<= epochs * shards). */
    std::uint64_t slices = 0;
    /** Total shard cycles ticked under the scheduler. */
    std::uint64_t ticks = 0;
    /** Wall-clock seconds spent inside run(). */
    double wallSeconds = 0.0;
    /** Per-epoch wall-clock seconds (mean/min/max/stddev). */
    RunningStat epochWall;
};

/**
 * Drives one shard in bounded slices against its per-slice
 * SliceL2Views, reached through the shard's DirectoryPort. The
 * scheduler owns one runner per shard; runSlice() is the only method
 * invoked from worker threads.
 */
class ShardRunner
{
  public:
    /**
     * @param sys      the shard (not owned)
     * @param dir      the clustered LLC the views overlay
     * @param cluster  the shard's home cluster
     */
    ShardRunner(MonitoringSystem &sys, HomeDirectory &dir,
                unsigned cluster);

    /** Arm a run: retire @p instructions more, with a fresh tick
     *  budget. */
    void beginRun(std::uint64_t instructions);

    /** Has this shard retired its run target? */
    bool
    done() const
    {
        return sys_.retired() >= target_;
    }

    /** Has its replayed stream run dry short of the target? */
    bool starved() const { return !done() && sys_.replayExhausted(); }

    /**
     * Advance the shard by at most @p maxTicks cycles, stopping early
     * at the run target. Worker-thread safe: touches only this shard's
     * state and the frozen L2 snapshot through the view.
     */
    void runSlice(std::uint64_t maxTicks);

    /** Replay this slice's L2 traffic (barrier; fixed shard order,
     *  slices in index order). */
    void commitSlice();

    /** Rebase the views on the merged slices (barrier, after all
     *  commits). */
    void beginEpoch();

    /**
     * Route the shard's L2 traffic through the per-slice views / back
     * to the real slices. Both paths go through the DirectoryPort, so
     * home routing and the remote-cluster penalty apply identically
     * inside and outside scheduled runs.
     */
    void attach();
    void detach();

    /** Cycles ticked since beginRun() (deadlock accounting). */
    std::uint64_t ticksUsed() const { return ticksUsed_; }

    /** Local/remote slice routing counters of this shard's port. */
    const DirectoryPortStats &routeStats() const { return port_.stats(); }
    void resetRouteStats() { port_.resetStats(); }

  private:
    MonitoringSystem &sys_;
    DirectoryPort port_;
    /** One COW view per LLC slice (index = cluster). */
    std::vector<std::unique_ptr<SliceL2View>> views_;
    std::uint64_t target_ = 0;
    std::uint64_t ticksUsed_ = 0;
};

/**
 * Runs N shards to a per-shard instruction target under the configured
 * policy. Construction is cheap; the ParallelBatched worker pool is
 * started lazily on the first parallel run() and joined in the
 * destructor.
 *
 * Thread-safety contract: run(), resetStats() and stats() must be
 * called from one thread (the owner's). Workers only ever execute
 * ShardRunner::runSlice between barriers; every merge step
 * (commitSlice, beginEpoch, stat rollups) happens on the calling
 * thread with workers quiescent, so simulated state needs no locks.
 */
class ShardScheduler
{
  public:
    /**
     * @param cfg       policy, slice length (>= 1), worker count
     * @param shards    one MonitoringSystem per shard (not owned)
     * @param dir       the clustered LLC behind all shards
     * @param clusters  home cluster of each shard (same length as
     *                  @p shards)
     */
    ShardScheduler(const SchedulerConfig &cfg,
                   std::vector<MonitoringSystem *> shards,
                   HomeDirectory &dir,
                   const std::vector<unsigned> &clusters);
    ~ShardScheduler();

    ShardScheduler(const ShardScheduler &) = delete;
    ShardScheduler &operator=(const ShardScheduler &) = delete;

    /**
     * Advance every shard by @p instructions retired instructions,
     * slicing and merging per the policy. Panics (like the legacy
     * lockstep loop) if a shard exceeds sliceCycleLimit() without
     * reaching its target; throws TraceError if a replayed shard's
     * stream runs dry first. @p what names the phase in diagnostics.
     * Equivalent to beginRun() + stepEpochs(until done).
     */
    void run(std::uint64_t instructions, const char *what);

    /**
     * Resumable form of run(): arm a run toward @p instructions more
     * retired instructions per shard, then advance it with
     * stepEpochs(). Epoch boundaries — and therefore every simulated
     * value — are identical whether the run is stepped in one call or
     * many: stepEpochs(k) executes exactly the first k epochs the
     * monolithic loop would have. The monitoring daemon interleaves
     * many sessions this way, yielding between sessions at epoch
     * granularity (daemon/sessionpool.hh).
     */
    void beginRun(std::uint64_t instructions, const char *what);

    /**
     * Execute at most @p maxEpochs slice epochs of the armed run.
     * @return true when every shard has reached its target (the run is
     * finished and detached; wall-clock accounting is folded into
     * stats()). Panics if called without an armed run.
     */
    bool stepEpochs(std::uint64_t maxEpochs);

    /** An armed run has not finished yet (beginRun() called, last
     *  stepEpochs() returned false). */
    bool runActive() const { return running_; }

    const SchedulerConfig &config() const { return cfg_; }
    const SchedulerStats &stats() const { return stats_; }
    void resetStats() { stats_ = SchedulerStats{}; }

    /** Shard @p i's runner (route-stat collection). */
    ShardRunner &runner(unsigned i) { return *runners_.at(i); }

    /** Worker threads a parallel epoch uses (1 when sequential). */
    unsigned workerCount() const;

  private:
    void runEpoch();
    void startWorkers();
    void workerLoop(unsigned worker);

    SchedulerConfig cfg_;
    std::vector<std::unique_ptr<ShardRunner>> runners_;
    SchedulerStats stats_;

    /** Armed-run state (beginRun()/stepEpochs()). */
    bool running_ = false;
    const char *what_ = "";
    std::uint64_t cycleLimit_ = 0;
    std::chrono::steady_clock::time_point runT0_;

    /** Worker pool (ParallelBatched only; empty until first use). */
    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::uint64_t epochSeq_ = 0;
    std::uint64_t epochTicks_ = 0;
    unsigned pending_ = 0;
    bool stop_ = false;
};

} // namespace fade

#endif // FADE_SYSTEM_SCHEDULER_HH
