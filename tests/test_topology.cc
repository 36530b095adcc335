/**
 * @file
 * Clustered-topology tests: flat-case bit-identity against pre-refactor
 * golden fingerprints, cross-policy/run determinism over the
 * clusters x fadesPerShard matrix, directory routing invariants,
 * rollup sums, counter names, and multi-FADE steering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "mem/directory.hh"
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

/** FNV-1a over the fingerprint words (golden-value anchoring). */
std::uint64_t
fnv1a(const std::vector<std::uint64_t> &v)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t w : v)
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xFF;
            h *= 1099511628211ULL;
        }
    return h;
}

struct TopoRun
{
    MultiCoreResult result;
    StatVector fingerprint;
    std::vector<std::size_t> reports;
};

TopoRun
runTopology(unsigned shards, const char *monitor, const char *anchor,
            unsigned clusters, unsigned fadesPerShard,
            SchedulerPolicy pol = SchedulerPolicy::Lockstep,
            unsigned hostThreads = 0)
{
    MultiCoreConfig cfg;
    cfg.numShards = shards;
    cfg.monitor = monitor;
    cfg.workloads = multiprogramWorkloads(anchor);
    cfg.scheduler.policy = pol;
    cfg.scheduler.hostThreads = hostThreads;
    cfg.topology.clusters = clusters;
    cfg.shard.fadesPerShard = fadesPerShard;
    MultiCoreSystem sys(cfg);
    sys.warmup(kWarm);
    TopoRun t;
    t.result = sys.run(kRun);
    t.fingerprint = resultStats(sys, t.result);
    for (unsigned i = 0; i < sys.numShards(); ++i)
        t.reports.push_back(sys.monitor(i) ? sys.monitor(i)->reports().size()
                                           : 0);
    return t;
}

} // namespace

TEST(Topology, ResolvesShardCounts)
{
    // numShards splits evenly across the clusters in blocks: shards
    // [c*spc, (c+1)*spc) form cluster c.
    MultiCoreConfig cfg;
    cfg.workloads = {specProfile("hmmer")};
    cfg.numShards = 8;
    cfg.topology.clusters = 2;
    EXPECT_EQ(validateConfig(cfg), "");
    MultiCoreSystem sys(cfg);
    EXPECT_EQ(sys.numClusters(), 2u);
    EXPECT_EQ(sys.clusterOf(0), 0u);
    EXPECT_EQ(sys.clusterOf(3), 0u);
    EXPECT_EQ(sys.clusterOf(4), 1u);
    EXPECT_EQ(sys.clusterOf(7), 1u);

    cfg.topology.clusters = 3;
    EXPECT_NE(validateConfig(cfg).find("divide evenly"),
              std::string::npos);
}

TEST(Topology, GoldenFlatFingerprints)
{
    // Captured from the flat (pre-topology) MultiCoreSystem at the PR 4
    // commit, before the cluster/directory/FadeGroup refactor: the
    // 1-cluster, 1-FADE system must reproduce them bit for bit. A
    // mismatch means the refactor changed flat-system behavior.
    struct Golden
    {
        const char *anchor;
        const char *monitor;
        unsigned n;
        bool parallel;
        std::uint64_t hash;
    };
    const Golden golden[] = {
        {"hmmer", "MemLeak", 1, false, 0xE78BB961937DC23FULL},
        {"hmmer", "MemLeak", 2, false, 0x0F0E431480908B64ULL},
        {"gcc", "AddrCheck", 4, true, 0x11390AE9F493BC00ULL},
        {"mcf", "TaintCheck", 2, false, 0xC56DDA0D768F46D8ULL},
        {"astar", "AddrCheck", 1, true, 0x1882ECA0818C5BB9ULL},
        {"bzip", "MemCheck", 4, false, 0x6DA1301FB8A8DBB3ULL},
        {"hmmer", "", 2, false, 0x10A23F27F9FF8C70ULL},
        {"gobmk", "MemLeak", 8, true, 0x618FC551A025696CULL},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(std::string(g.anchor) + "/" + g.monitor + "/N=" +
                     std::to_string(g.n));
        TopoRun t = runTopology(g.n, g.monitor, g.anchor, 1, 1,
                                g.parallel
                                    ? SchedulerPolicy::ParallelBatched
                                    : SchedulerPolicy::Lockstep);
        EXPECT_EQ(fnv1a(t.fingerprint.values), g.hash);
    }
}

TEST(Topology, DeterministicAcrossPoliciesEnginesAndRuns)
{
    // For every topology in the matrix, both policies and a repeated
    // run of the per-cycle reference must agree bit for bit: the
    // scheduler's equality argument extends to clustered, multi-FADE
    // systems. The matrix is every 4-shard shape plus fig12's largest,
    // 8 shards x 4 clusters x 2 FADEs, and one flat shape whose result
    // depends on where the barriers fall. (Run-grain's policy invariance
    // is pinned in tests/test_pipeline.cc and tests/test_threads.cc.)
    struct Shape
    {
        unsigned shards, clusters, fades;
    };
    const Shape shapes[] = {{4, 1, 1}, {4, 1, 2}, {4, 2, 1}, {4, 2, 2},
                            {4, 4, 1}, {4, 4, 2}, {8, 4, 2}};
    for (const Shape &s : shapes) {
        SCOPED_TRACE(testing::Message() << s.shards << "x" << s.clusters
                                        << "x" << s.fades);
        TopoRun ref =
            runTopology(s.shards, "MemLeak", "hmmer", s.clusters, s.fades);
        EXPECT_GT(ref.result.totalEvents, 0u);
        for (auto pol : {SchedulerPolicy::Lockstep,
                         SchedulerPolicy::ParallelBatched}) {
            TopoRun t = runTopology(s.shards, "MemLeak", "hmmer",
                                    s.clusters, s.fades, pol);
            EXPECT_TRUE(test::sameStats(t.fingerprint, ref.fingerprint))
                << "policy=" << int(pol);
            EXPECT_EQ(t.reports, ref.reports);
        }
    }

    // The hmmer mix gives one result at every slice size, so it cannot
    // tell a policy that places barriers differently from Lockstep.
    // Eight copies of mcf can: in this window their result depends on
    // the slice size (the guard keeps it so), so agreement checks that
    // ParallelBatched keeps Lockstep's barriers.
    SCOPED_TRACE("AddrCheck mcf x8");
    MultiCoreConfig mcf;
    mcf.numShards = 8;
    mcf.monitor = "AddrCheck";
    mcf.workloads = {specProfile("mcf")};
    mcf.scheduler.hostThreads = 4;
    auto run = [](const MultiCoreConfig &cfg) {
        MultiCoreSystem sys(cfg);
        sys.warmup(5000);
        return resultStats(sys, sys.run(60000));
    };
    StatVector lock = run(mcf);
    MultiCoreConfig halfSlice = mcf;
    halfSlice.scheduler.sliceTicks /= 2;
    ASSERT_FALSE(run(halfSlice).values == lock.values)
        << "two slice sizes gave the same result: the shape no longer "
           "depends on barrier placement";
    mcf.scheduler.policy = SchedulerPolicy::ParallelBatched;
    EXPECT_TRUE(test::sameStats(run(mcf), lock));
}

TEST(Topology, RoutingIsolationAcrossClusters)
{
    // A bug injected into one shard of a clustered system surfaces in
    // that shard's monitor and nowhere else, and no event ever crosses
    // shards — clustering changes memory latency, never event routing.
    MultiCoreConfig cfg;
    cfg.numShards = 4;
    cfg.monitor = "AddrCheck";
    cfg.workloads = {specProfile("hmmer"), specProfile("gcc"),
                     specProfile("bzip"), specProfile("gobmk")};
    cfg.topology.clusters = 2;
    cfg.shard.fadesPerShard = 2;
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

TEST(Topology, RollupSumsOverShardsAndClusters)
{
    for (unsigned clusters : {2u, 4u}) {
        SCOPED_TRACE(clusters);
        TopoRun t = runTopology(4, "MemLeak", "gcc", clusters, 2);
        const MultiCoreResult &r = t.result;
        std::uint64_t insts = 0, events = 0, instEvents = 0;
        std::uint64_t filtered = 0, occTotal = 0, maxCycles = 0;
        std::uint64_t local = 0, remote = 0;
        for (const ShardResult &s : r.shards) {
            insts += s.run.appInstructions;
            events += s.run.monitoredEvents;
            instEvents += s.fade.instEvents;
            filtered += s.fade.filtered;
            occTotal += s.eqOccupancy.total();
            maxCycles = std::max(maxCycles, s.run.cycles);
            local += s.l2Local;
            remote += s.l2Remote;
            EXPECT_EQ(s.cluster, s.shard / (4 / clusters));
        }
        EXPECT_EQ(r.totalInstructions, insts);
        EXPECT_EQ(r.totalEvents, events);
        EXPECT_EQ(r.fade.instEvents, instEvents);
        EXPECT_EQ(r.fade.filtered, filtered);
        EXPECT_EQ(r.eqOccupancy.total(), occTotal);
        EXPECT_EQ(r.cycles, maxCycles);
        EXPECT_EQ(r.l2LocalAccesses, local);
        EXPECT_EQ(r.l2RemoteAccesses, remote);
        // Clustered routing really sends traffic to remote slices.
        EXPECT_GT(r.l2RemoteAccesses, 0u);
    }
}

TEST(Topology, StatNamesAlignWithValues)
{
    // resultStats and functionalFingerprint give every value one
    // unique name, and each name reads the counter it says it does:
    // checked per listed RunResult / FadeStats counter of every shard,
    // plus one counter of each family the fingerprint adds around
    // them, on a clustered multi-FADE run.
    MultiCoreConfig cfg;
    cfg.numShards = 4;
    cfg.monitor = "TaintCheck";
    cfg.workloads = multiprogramWorkloads("astar");
    cfg.topology.clusters = 2;
    cfg.shard.fadesPerShard = 2;
    MultiCoreSystem sys(cfg);
    sys.warmup(2000);
    MultiCoreResult r = sys.run(5000);

    auto expectUniqueNames = [](const StatVector &v) {
        EXPECT_EQ(v.names.size(), v.values.size());
        std::set<std::string> unique(v.names.begin(), v.names.end());
        EXPECT_EQ(unique.size(), v.names.size());
    };
    // The scalar counters of @p s, each looked up by its full name.
    auto expectScalars = [](const StatVector &v, const std::string &prefix,
                            const auto &s, bool functionalOnly) {
        using T = std::decay_t<decltype(s)>;
        T::forEachField([&](const char *name, auto member, StatKind kind) {
            using V = std::decay_t<decltype(s.*member)>;
            const std::string full = prefix + "." + name;
            if constexpr (std::is_same_v<V, std::uint64_t>) {
                if (functionalOnly && kind == StatKind::Timing) {
                    EXPECT_EQ(std::count(v.names.begin(), v.names.end(),
                                         full),
                              0)
                        << full;
                } else {
                    EXPECT_EQ(test::statValue(v, full), s.*member) << full;
                }
            }
        });
    };

    StatVector all = resultStats(sys, r);
    expectUniqueNames(all);
    EXPECT_EQ(all.values, resultFingerprint(sys, r));
    expectScalars(all, "fade", r.fade, false);
    for (const ShardResult &s : r.shards) {
        const std::string shard = "shard" + std::to_string(s.shard);
        expectScalars(all, shard + ".run", s.run, false);
        expectScalars(all, shard + ".fade", s.fade, false);
        EXPECT_EQ(test::statValue(all, shard + ".bug_reports"),
                  s.bugReports);
        EXPECT_EQ(test::statValue(all, shard + ".l2_remote"), s.l2Remote);
    }
    EXPECT_EQ(test::statValue(all, "cycles"), r.cycles);
    EXPECT_EQ(test::statValue(all, "events"), r.totalEvents);
    EXPECT_EQ(test::statValue(all, "eq_occupancy.total"),
              r.eqOccupancy.total());
    EXPECT_EQ(test::statValue(all, "shard1.fade.unf_burst.max"),
              r.shards[1].fade.unfBurst.maxValue());
    EXPECT_EQ(test::statValue(all, "shard2.fade.software_by_id[1]"),
              r.shards[2].fade.softwareById[1]);
    EXPECT_EQ(test::statValue(all, "shard3.reports"),
              sys.monitor(3)->reports().size());
    EXPECT_EQ(test::statValue(all, "llc1.misses"),
              sys.directory().slice(1).misses());

    // The functional set: every Functional counter of every shard, no
    // Timing one. functionalFingerprint() drains first, so compare
    // against the shards' counters read after it.
    StatVector fn = sys.functionalFingerprint();
    expectUniqueNames(fn);
    for (unsigned i = 0; i < sys.numShards(); ++i) {
        const std::string shard = "shard" + std::to_string(i);
        MonitoringSystem &s = sys.shard(i);
        EXPECT_EQ(test::statValue(fn, shard + ".run.app_instructions"),
                  s.retired());
        EXPECT_EQ(test::statValue(fn, shard + ".run.monitored_events"),
                  s.produced());
        EXPECT_GT(s.produced(), 0u);
        expectScalars(fn, shard + ".fade", s.fadeStats(), true);
        EXPECT_EQ(test::statValue(fn, shard + ".reports"),
                  sys.monitor(i)->reports().size());
    }
    EXPECT_EQ(std::count_if(fn.names.begin(), fn.names.end(),
                            [](const std::string &n) {
                                return n.find("cycles") !=
                                           std::string::npos &&
                                       n.find("suu_cycles") ==
                                           std::string::npos;
                            }),
              0);
}

TEST(Topology, DirectoryRoutingInvariants)
{
    // Flat: one slice, every access local, home() constant.
    TopoRun flat = runTopology(2, "MemLeak", "hmmer", 1, 1);
    EXPECT_EQ(flat.result.l2RemoteAccesses, 0u);
    EXPECT_GT(flat.result.l2LocalAccesses, 0u);

    // Clustered: both routes exercised on every shard.
    TopoRun clustered = runTopology(4, "MemLeak", "hmmer", 2, 1);
    for (const ShardResult &s : clustered.result.shards) {
        SCOPED_TRACE(s.shard);
        EXPECT_GT(s.l2Local, 0u);
        EXPECT_GT(s.l2Remote, 0u);
    }
    // Remote hops cost extra cycles: the same workload takes longer
    // on a clustered LLC than behind the flat shared L2.
    TopoRun flat4 = runTopology(4, "MemLeak", "hmmer", 1, 1);
    EXPECT_GT(clustered.result.cycles, flat4.result.cycles);

    // The hash reaches every slice and stays in range.
    DirectoryParams p;
    p.clusters = 4;
    HomeDirectory dir(p);
    std::vector<bool> seen(4, false);
    for (Addr a = 0; a < 64 * 1024; a += 64)
        seen[dir.home(a)] = true;
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));

    DirectoryParams one;
    HomeDirectory flatDir(one);
    for (Addr a = 0; a < 4096; a += 64)
        EXPECT_EQ(flatDir.home(a), 0u);
}

TEST(Topology, DirectoryPortChargesRemotePenalty)
{
    DirectoryParams p;
    p.clusters = 2;
    p.remoteLatency = 40;
    HomeDirectory dir(p);
    DirectoryPort port0(dir, 0);
    DirectoryPort port1(dir, 1);
    // An address homed on slice 0: local for port0, remote for port1.
    Addr a0 = 0;
    while (dir.home(a0) != 0)
        a0 += 64;

    unsigned missLocal = port0.access(a0, false);  // cold fill
    unsigned hitLocal = port0.access(a0, false);   // slice hit
    unsigned hitRemote = port1.access(a0, false);  // hit + penalty
    EXPECT_GT(missLocal, hitLocal);
    EXPECT_EQ(hitLocal, p.slice.latency);
    EXPECT_EQ(hitRemote, hitLocal + p.remoteLatency);

    EXPECT_EQ(port0.stats().localAccesses, 2u);
    EXPECT_EQ(port0.stats().remoteAccesses, 0u);
    EXPECT_EQ(port1.stats().localAccesses, 0u);
    EXPECT_EQ(port1.stats().remoteAccesses, 1u);
}

TEST(Topology, MultiFadeSteeringIsRoundRobinAndMerged)
{
    // Single shard, two filter units: strict rotation balances the
    // steered counts to within one event, merged stats equal the sum
    // of the units', and both units do real filtering work.
    SystemConfig scfg;
    scfg.fadesPerShard = 2;
    auto mon = makeMonitor("MemLeak");
    MonitoringSystem sys(scfg, specProfile("hmmer"), mon.get());
    sys.warmup(kWarm);
    sys.run(kRun);

    FadeGroup *g = sys.fadeGroup();
    ASSERT_NE(g, nullptr);
    ASSERT_EQ(g->size(), 2u);
    std::uint64_t s0 = g->steeredTo(0), s1 = g->steeredTo(1);
    EXPECT_GT(s0, 0u);
    EXPECT_GT(s1, 0u);
    std::uint64_t diff = s0 > s1 ? s0 - s1 : s1 - s0;
    EXPECT_LE(diff, 1u);

    FadeStats merged = g->stats();
    FadeStats sum = g->unit(0).stats();
    sum.merge(g->unit(1).stats());
    EXPECT_EQ(merged.instEvents, sum.instEvents);
    EXPECT_EQ(merged.filtered, sum.filtered);
    EXPECT_EQ(merged.unfiltered, sum.unfiltered);
    EXPECT_GT(g->unit(0).stats().instEvents, 0u);
    EXPECT_GT(g->unit(1).stats().instEvents, 0u);
    // Stack updates and high-level events serialized the group.
    EXPECT_GT(g->serialized(), 0u);
    EXPECT_EQ(merged.crossShardEvents, 0u);
}

TEST(Topology, MultiFadeHighLevelSerializationStaysSound)
{
    // TaintCheck depends on taint-source bulk updates ordering against
    // subsequent filtering; MemLeak on malloc/free ordering. Both must
    // run deterministically with two units and report identically
    // whether the shards run in lockstep or concurrently on two
    // worker threads.
    for (const char *mon : {"TaintCheck", "MemLeak"}) {
        SCOPED_TRACE(mon);
        TopoRun lock = runTopology(2, mon, "mcf", 1, 2,
                                   SchedulerPolicy::Lockstep);
        TopoRun par = runTopology(2, mon, "mcf", 1, 2,
                                  SchedulerPolicy::ParallelBatched, 2);
        EXPECT_TRUE(test::sameStats(lock.fingerprint, par.fingerprint));
        EXPECT_EQ(lock.reports, par.reports);
    }
}

TEST(Topology, MultiFadeKeepsCleanRunsQuiet)
{
    // AddrCheck stays quiet on clean streams with one unit; the
    // group-serialized allocation events must keep it quiet with two.
    MultiCoreConfig cfg;
    cfg.numShards = 2;
    cfg.monitor = "AddrCheck";
    cfg.workloads = multiprogramWorkloads("hmmer");
    cfg.shard.fadesPerShard = 2;
    MultiCoreSystem sys(cfg);
    sys.warmup(kWarm);
    sys.run(kRun);
    for (unsigned i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(sys.monitor(i)->reports().empty());
    }
}

TEST(Topology, MultiFadeDrainsTheEventQueueFaster)
{
    // The point of multiple filter units: the same workload finishes
    // in fewer simulated cycles when the shard's EQ is drained by two
    // units instead of one.
    TopoRun one = runTopology(2, "MemLeak", "hmmer", 1, 1);
    TopoRun two = runTopology(2, "MemLeak", "hmmer", 1, 2);
    EXPECT_LT(two.result.cycles, one.result.cycles);
}

TEST(Topology, FadeGroupBounds)
{
    SystemConfig scfg;
    scfg.fadesPerShard = maxFadesPerShard;
    auto mon = makeMonitor("MemLeak");
    MonitoringSystem sys(scfg, specProfile("hmmer"), mon.get());
    sys.warmup(2000);
    RunResult r = sys.run(4000);
    EXPECT_GT(r.appInstructions, 0u);

    MonitorContext ctx(0);
    EXPECT_EXIT(FadeGroup(0, FadeParams{}, ctx, nullptr, 0),
                testing::ExitedWithCode(1), "unit count");
    EXPECT_EXIT(
        FadeGroup(maxFadesPerShard + 1, FadeParams{}, ctx, nullptr, 0),
        testing::ExitedWithCode(1), "unit count");
}

} // namespace fade
