/**
 * @file
 * Shard scheduler tests: bit-equality of ParallelBatched vs Lockstep
 * across shard counts and slice sizes, determinism of repeated
 * parallel runs, N=1 equivalence with the legacy single-core system
 * under the slice protocol, and the host width (hostCpuCount) that
 * sizes the scheduler.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <cstdint>
#include <vector>

#include "monitor/factory.hh"
#include "system/multicore.hh"
#include "trace/profile.hh"

#include "testutil.hh"

namespace fade
{

namespace
{

constexpr std::uint64_t kWarm = 8000;
constexpr std::uint64_t kRun = 15000;

MultiCoreConfig
baseConfig(unsigned shards)
{
    MultiCoreConfig cfg;
    cfg.numShards = shards;
    cfg.monitor = "MemLeak";
    cfg.workloads = multiprogramWorkloads("hmmer");
    return cfg;
}

StatVector
runOnce(MultiCoreConfig cfg, std::uint64_t warm = kWarm,
        std::uint64_t run = kRun)
{
    MultiCoreSystem sys(cfg);
    sys.warmup(warm);
    MultiCoreResult r = sys.run(run);
    return resultStats(sys, r);
}

/** Pins the calling thread to the first CPU of its affinity mask for
 *  its lifetime, then restores the mask. */
class PinnedToOneCpu
{
  public:
    PinnedToOneCpu()
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        int cpu = 0;
        while (!CPU_ISSET(cpu, &saved_))
            ++cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    }

    ~PinnedToOneCpu()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }

    PinnedToOneCpu(const PinnedToOneCpu &) = delete;
    PinnedToOneCpu &operator=(const PinnedToOneCpu &) = delete;

    bool pinned() const { return pinned_; }

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

} // namespace

TEST(Scheduler, ParallelBitIdenticalToLockstep)
{
    // The acceptance property of the parallel scheduler: for N in
    // {1, 2, 4, 8}, every simulated number matches the sequential
    // policy exactly. hostThreads forces a pool even on a single-CPU
    // host for the N >= 2 legs (a single shard never starts workers).
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(n);
        MultiCoreConfig lock = baseConfig(n);
        lock.scheduler.policy = SchedulerPolicy::Lockstep;
        MultiCoreConfig par = baseConfig(n);
        par.scheduler.policy = SchedulerPolicy::ParallelBatched;
        par.scheduler.hostThreads = 4;
        EXPECT_TRUE(test::sameStats(runOnce(lock), runOnce(par)));
    }
}

TEST(Scheduler, ParallelBitIdenticalAcrossSliceSizes)
{
    // Slice length changes the modelled interference granularity (so
    // different sizes may legitimately differ from each other), but at
    // every size the two policies must still agree bit for bit.
    for (std::uint64_t slice : {512ull, 2048ull, 8192ull}) {
        SCOPED_TRACE(slice);
        MultiCoreConfig lock = baseConfig(4);
        lock.scheduler.policy = SchedulerPolicy::Lockstep;
        lock.scheduler.sliceTicks = slice;
        MultiCoreConfig par = baseConfig(4);
        par.scheduler.policy = SchedulerPolicy::ParallelBatched;
        par.scheduler.sliceTicks = slice;
        par.scheduler.hostThreads = 3; // workers != shards on purpose
        EXPECT_TRUE(test::sameStats(runOnce(lock), runOnce(par)));
    }

    // The hmmer mix gives one result at every slice size, so it cannot
    // tell a policy that places barriers differently from Lockstep.
    // Eight copies of mcf contend for L2 lines within a slice: their
    // result depends on the slice size, so agreement at each size
    // checks that ParallelBatched keeps Lockstep's barriers.
    MultiCoreConfig mcf;
    mcf.numShards = 8;
    mcf.monitor = "AddrCheck";
    mcf.workloads = {specProfile("mcf")};
    std::vector<StatVector> bySize;
    for (std::uint64_t slice : {1024ull, 4096ull, 16384ull}) {
        SCOPED_TRACE(slice);
        MultiCoreConfig lock = mcf;
        lock.scheduler.sliceTicks = slice;
        MultiCoreConfig par = lock;
        par.scheduler.policy = SchedulerPolicy::ParallelBatched;
        par.scheduler.hostThreads = 3;
        bySize.push_back(runOnce(lock, 40000, 60000));
        EXPECT_TRUE(
            test::sameStats(bySize.back(), runOnce(par, 40000, 60000)));
    }
    EXPECT_FALSE(bySize[0].values == bySize[1].values &&
                 bySize[1].values == bySize[2].values)
        << "every slice size gave the same result: the shape no longer "
           "depends on barrier placement";
}

TEST(Scheduler, ParallelDeterministicAcrossRepeatedRuns)
{
    // Two independent parallel systems from the same config must agree
    // bit for bit no matter how the host schedules the workers.
    MultiCoreConfig cfg = baseConfig(4);
    cfg.scheduler.policy = SchedulerPolicy::ParallelBatched;
    cfg.scheduler.hostThreads = 4;
    EXPECT_TRUE(test::sameStats(runOnce(cfg), runOnce(cfg)));
}

TEST(Scheduler, SingleShardMatchesLegacyForAnySliceAndPolicy)
{
    // With one shard the slice protocol is exact, so the N=1 sharded
    // system reproduces the legacy single-core system for every
    // policy and slice length, not only the default.
    SystemConfig scfg;
    auto mon = makeMonitor("MemLeak");
    MonitoringSystem legacy(scfg, specProfile("hmmer"), mon.get());
    legacy.warmup(kWarm);
    RunResult lr = legacy.run(kRun);

    for (auto pol : {SchedulerPolicy::Lockstep,
                     SchedulerPolicy::ParallelBatched}) {
        for (std::uint64_t slice : {600ull, 4096ull}) {
            SCOPED_TRACE(slice);
            MultiCoreConfig cfg = baseConfig(1);
            cfg.scheduler.policy = pol;
            cfg.scheduler.sliceTicks = slice;
            MultiCoreSystem mc(cfg);
            mc.warmup(kWarm);
            MultiCoreResult mr = mc.run(kRun);
            ASSERT_EQ(mr.shards.size(), 1u);
            EXPECT_EQ(mr.shards[0].run.cycles, lr.cycles);
            EXPECT_EQ(mr.shards[0].run.appInstructions,
                      lr.appInstructions);
            EXPECT_EQ(mr.shards[0].run.monitoredEvents,
                      lr.monitoredEvents);
            EXPECT_EQ(mr.shards[0].run.appStallCycles,
                      lr.appStallCycles);
            EXPECT_EQ(mr.shards[0].run.handlerInstructions,
                      lr.handlerInstructions);
        }
    }
}

TEST(Scheduler, HostWidthFollowsAffinity)
{
    // The host width is the affinity mask, not the machine: pinned to
    // one CPU (as under `taskset -c 0`), a default-width parallel
    // scheduler runs one worker, and the collapsed parallel run still
    // matches Lockstep bit for bit. An explicit width is honored even
    // past the mask.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    {
        PinnedToOneCpu pin;
        ASSERT_TRUE(pin.pinned());
        EXPECT_EQ(hostCpuCount(), 1u);

        MultiCoreConfig par = baseConfig(4);
        par.scheduler.policy = SchedulerPolicy::ParallelBatched;
        MultiCoreSystem sys(par);
        EXPECT_EQ(sys.scheduler().workerCount(), 1u);
        sys.warmup(kWarm);
        MultiCoreResult r = sys.run(kRun);
        StatVector lockstep = runOnce(baseConfig(4));
        EXPECT_TRUE(test::sameStats(lockstep, resultStats(sys, r)));

        par.scheduler.hostThreads = 2;
        EXPECT_EQ(MultiCoreSystem(par).scheduler().workerCount(), 2u);
    }
    EXPECT_EQ(hostCpuCount(), unsigned(CPU_COUNT(&mask)));
}

} // namespace fade
