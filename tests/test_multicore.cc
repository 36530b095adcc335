/** @file Sharded multi-core system tests: routing, rollups, determinism. */

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "monitor/factory.hh"
#include "system/multicore.hh"
#include "trace/profile.hh"

#include "testutil.hh"

namespace fade
{

namespace
{

constexpr std::uint64_t kWarm = 10000;
constexpr std::uint64_t kRun = 20000;

MultiCoreConfig
memLeakConfig(unsigned shards)
{
    MultiCoreConfig cfg;
    cfg.numShards = shards;
    cfg.monitor = "MemLeak";
    cfg.workloads = multiprogramWorkloads("hmmer");
    return cfg;
}

} // namespace

TEST(ShardWorkload, RoundRobinWithSeedDecorrelation)
{
    std::vector<BenchProfile> w = {specProfile("hmmer"),
                                   specProfile("gcc")};
    // First pass through the list: profiles verbatim.
    EXPECT_EQ(shardWorkload(w, 0).name, "hmmer");
    EXPECT_EQ(shardWorkload(w, 0).seed, w[0].seed);
    EXPECT_EQ(shardWorkload(w, 1).name, "gcc");
    EXPECT_EQ(shardWorkload(w, 1).seed, w[1].seed);
    // Second pass: same benchmarks, decorrelated seeds.
    EXPECT_EQ(shardWorkload(w, 2).name, "hmmer#s2");
    EXPECT_NE(shardWorkload(w, 2).seed, w[0].seed);
    EXPECT_EQ(shardWorkload(w, 3).name, "gcc#s3");
    EXPECT_NE(shardWorkload(w, 3).seed, w[1].seed);
    // Duplicate entries in the list itself also decorrelate.
    std::vector<BenchProfile> dup = {specProfile("hmmer"),
                                     specProfile("hmmer")};
    EXPECT_EQ(shardWorkload(dup, 0).seed, dup[0].seed);
    EXPECT_NE(shardWorkload(dup, 1).seed, dup[1].seed);
    EXPECT_EQ(shardWorkload(dup, 1).name, "hmmer#s1");
}

TEST(MultiCore, SingleShardMatchesLegacySystem)
{
    // The legacy single-core MonitoringSystem must be exactly the N=1
    // case of the sharded system: every listed RunResult and FadeStats
    // counter (cycles, events, stalls, filter decisions, handler work,
    // histograms) and the bug reports.
    SystemConfig scfg;
    auto legacyMon = makeMonitor("MemLeak");
    MonitoringSystem legacy(scfg, specProfile("hmmer"), legacyMon.get());
    legacy.warmup(kWarm);
    RunResult lr = legacy.run(kRun);

    MultiCoreConfig mcfg = memLeakConfig(1);
    MultiCoreSystem mc(mcfg);
    mc.warmup(kWarm);
    MultiCoreResult mr = mc.run(kRun);

    ASSERT_EQ(mr.shards.size(), 1u);
    StatVector legacyStats, shardStats;
    appendFields(legacyStats, "run", lr);
    appendFields(legacyStats, "fade", legacy.fade()->stats());
    appendFields(shardStats, "run", mr.shards[0].run);
    appendFields(shardStats, "fade", mr.shards[0].fade);
    EXPECT_GT(test::statValue(legacyStats, "run.monitored_events"), 0u);
    EXPECT_TRUE(test::sameStats(shardStats, legacyStats));

    EXPECT_EQ(mc.monitor(0)->reports().size(),
              legacyMon->reports().size());

    EXPECT_EQ(mr.cycles, lr.cycles);
    EXPECT_EQ(mr.totalInstructions, lr.appInstructions);
    EXPECT_DOUBLE_EQ(mr.aggregateIpc, lr.appIpc);
}

TEST(MultiCore, EventsNeverCrossShards)
{
    MultiCoreConfig cfg = memLeakConfig(4);
    MultiCoreSystem sys(cfg);
    sys.warmup(kWarm);
    MultiCoreResult r = sys.run(kRun);
    ASSERT_EQ(r.shards.size(), 4u);
    for (const ShardResult &s : r.shards) {
        SCOPED_TRACE(s.shard);
        EXPECT_EQ(s.fade.crossShardEvents, 0u);
        EXPECT_GT(s.run.monitoredEvents, 0u);
        // Every event a shard's FADE consumed was produced by that
        // shard's own core.
        EXPECT_LE(s.fade.instEvents + s.fade.stackEvents +
                      s.fade.highLevelEvents,
                  s.run.monitoredEvents + 64);
    }
    EXPECT_EQ(r.fade.crossShardEvents, 0u);
}

TEST(MultiCore, BugInOneShardReportsOnlyThere)
{
    // AddrCheck stays quiet on these clean streams, so a violation
    // injected into shard 2's generator must surface in shard 2's
    // monitor and nowhere else.
    MultiCoreConfig cfg;
    cfg.numShards = 4;
    cfg.monitor = "AddrCheck";
    cfg.workloads = {specProfile("hmmer"), specProfile("gcc"),
                     specProfile("bzip"), specProfile("gobmk")};
    MultiCoreSystem sys(cfg);
    sys.warmup(kWarm);
    sys.shard(2).generator().injectBug(truthAccessUnallocated);
    MultiCoreResult r = sys.run(kRun);
    for (unsigned i = 0; i < 4; ++i) {
        SCOPED_TRACE(i);
        if (i == 2)
            EXPECT_FALSE(sys.monitor(i)->reports().empty());
        else
            EXPECT_TRUE(sys.monitor(i)->reports().empty());
    }
    EXPECT_EQ(r.fade.crossShardEvents, 0u);
}

TEST(MultiCore, AggregateEqualsSumOfShards)
{
    MultiCoreConfig cfg = memLeakConfig(4);
    MultiCoreSystem sys(cfg);
    sys.warmup(kWarm);
    MultiCoreResult r = sys.run(kRun);

    std::uint64_t insts = 0, events = 0, instEvents = 0, filtered = 0;
    std::uint64_t occTotal = 0, maxCycles = 0;
    for (const ShardResult &s : r.shards) {
        insts += s.run.appInstructions;
        events += s.run.monitoredEvents;
        instEvents += s.fade.instEvents;
        filtered += s.fade.filtered;
        occTotal += s.eqOccupancy.total();
        maxCycles = std::max(maxCycles, s.run.cycles);
    }
    EXPECT_EQ(r.totalInstructions, insts);
    EXPECT_EQ(r.totalEvents, events);
    EXPECT_EQ(r.fade.instEvents, instEvents);
    EXPECT_EQ(r.fade.filtered, filtered);
    EXPECT_EQ(r.eqOccupancy.total(), occTotal);
    EXPECT_EQ(r.cycles, maxCycles);
    EXPECT_DOUBLE_EQ(r.aggregateIpc,
                     double(insts) / double(r.cycles));
    // Event-weighted filtering ratio equals merged-counter ratio.
    EXPECT_NEAR(r.filteringRatio,
                instEvents ? double(filtered + r.fade.partialPass) /
                                 double(instEvents)
                           : 0.0,
                1e-12);
}

TEST(MultiCore, DeterministicAcrossRuns)
{
    // Guards sim/random.hh usage in the sharded path: two independent
    // systems built from the same seeded config must agree bit-for-bit.
    auto once = [] {
        MultiCoreConfig cfg;
        cfg.numShards = 4;
        cfg.monitor = "MemLeak";
        cfg.workloads = multiprogramWorkloads("gcc");
        MultiCoreSystem sys(cfg);
        sys.warmup(kWarm);
        MultiCoreResult r = sys.run(kRun);
        std::vector<std::uint64_t> perShard;
        std::size_t reports = 0;
        for (const ShardResult &s : r.shards) {
            perShard.push_back(s.run.cycles);
            perShard.push_back(s.run.monitoredEvents);
            perShard.push_back(s.fade.filtered);
        }
        for (unsigned i = 0; i < 4; ++i)
            reports += sys.monitor(i)->reports().size();
        return std::make_tuple(r.cycles, r.totalInstructions,
                               r.totalEvents, r.fade.filtered,
                               perShard, reports);
    };
    EXPECT_EQ(once(), once());
}

TEST(MultiCore, ThroughputScalesWithShards)
{
    // Homogeneous copies of one workload, so the makespan is not
    // dominated by a slow benchmark and scaling is apples-to-apples.
    auto cfgFor = [](unsigned n) {
        MultiCoreConfig cfg;
        cfg.numShards = n;
        cfg.monitor = "MemLeak";
        cfg.workloads = {specProfile("hmmer")};
        return cfg;
    };
    MultiCoreSystem s1(cfgFor(1));
    s1.warmup(kWarm);
    MultiCoreResult r1 = s1.run(kRun);

    MultiCoreSystem s4(cfgFor(4));
    s4.warmup(kWarm);
    MultiCoreResult r4 = s4.run(kRun);

    // Shards only contend in the shared L2, so four cores must deliver
    // well over 2x the single-shard system throughput.
    EXPECT_GT(r4.aggregateIpc, 2.0 * r1.aggregateIpc);
    EXPECT_GE(r4.totalInstructions, 4 * kRun);
}

TEST(MultiCore, UnmonitoredShardsProduceNoEvents)
{
    MultiCoreConfig cfg;
    cfg.numShards = 2;
    cfg.monitor = "";
    cfg.workloads = multiprogramWorkloads("bzip");
    MultiCoreSystem sys(cfg);
    sys.warmup(kWarm);
    MultiCoreResult r = sys.run(kRun);
    EXPECT_EQ(r.totalEvents, 0u);
    EXPECT_GT(r.aggregateIpc, 1.0);
}

} // namespace fade
