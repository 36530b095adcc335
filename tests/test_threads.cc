/**
 * @file
 * Multi-threaded process workloads end to end: the differential matrix
 * over shard count x scheduler policy x execution engine x topology
 * asserting that the cross-shard monitors (RaceCheck, SharedTaint)
 * report injected races/taint flows with identical fingerprints on
 * every shape, that clean runs stay quiet, and that repeated runs are
 * deterministic — plus the guardrails of the thread/shard resolution
 * machinery, capture/replay of a threaded process, and a randomized
 * property test of FadeGroup's group-serialization protocol.
 *
 * Matrix soundness notes:
 *  - Warmup is sized so every hosted thread finishes its entire
 *    SyncPlan script during warmup (warmup() drains at the end, so the
 *    per-thread logs are complete and identical before the measured
 *    slice on every shape; endSlice() does not drain, so a plan still
 *    in flight there would truncate logs differently per topology).
 *  - Across different shard counts only the REPORTS are comparable
 *    (they carry placement-invariant keys); timing fingerprints
 *    legitimately differ. Within one fixed shape the full result
 *    fingerprint must be bit-identical across scheduler policies and
 *    across repeats.
 *  - The run-grain engine is in the detection matrix too: thread
 *    interleaving is retirement-quantum-driven, so the instruction
 *    streams — and with them the report unions — are engine-invariant
 *    even though run-grain's modeled cycle counts are not. Its full
 *    fingerprint is pinned per shape against a run-grain reference
 *    (policy-invariant, deterministic).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "monitor/racecheck.hh"
#include "system/multicore.hh"
#include "testutil.hh"
#include "trace/threads.hh"

namespace fade
{
namespace
{

constexpr std::uint64_t measureInsts = 1500;

BenchProfile
processProfile(unsigned races, unsigned flows)
{
    BenchProfile p = threadedProfile("ocean");
    p.injectRaces = races;
    p.injectTaintFlows = flows;
    return p;
}

/** Warmup so every hosted thread crosses the plan horizon: threads
 *  time-slice round-robin on their shard's core, so a shard hosting h
 *  threads needs ~h times the horizon plus slack for quantum skew. */
std::uint64_t
warmFor(const BenchProfile &p, unsigned shards)
{
    const unsigned hosted = p.procThreads / shards;
    const std::uint64_t quantum = p.switchQuantum ? p.switchQuantum : 64;
    return hosted * (threadedPlanHorizon(p) + 2 * quantum) + 1024;
}

MultiCoreConfig
processConfig(const BenchProfile &p, const std::string &monitor,
              unsigned shards, unsigned clusters,
              SchedulerPolicy policy = SchedulerPolicy::Lockstep,
              Engine engine = Engine::PerCycle)
{
    MultiCoreConfig cfg;
    cfg.monitor = monitor;
    cfg.workloads = {p};
    cfg.numShards = shards;
    cfg.topology.clusters = clusters;
    cfg.scheduler.policy = policy;
    cfg.engine = engine;
    return cfg;
}

/** Placement-invariant key of one report (everything but arrival). */
std::string
reportKey(const BugReport &r)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "|%llx|%llx|%llx|",
                  (unsigned long long)r.pc, (unsigned long long)r.addr,
                  (unsigned long long)r.seq);
    return r.kind + buf + r.detail;
}

struct ProcessRun
{
    /** Sorted union of every shard's report keys. */
    std::vector<std::string> reports;
    StatVector fingerprint;
    MultiCoreResult result;
};

ProcessRun
runProcess(const MultiCoreConfig &cfg, const BenchProfile &p)
{
    MultiCoreSystem sys(cfg);
    sys.warmup(warmFor(p, sys.numShards()));
    ProcessRun r;
    r.result = sys.run(measureInsts);
    r.fingerprint = resultStats(sys, r.result);
    for (unsigned i = 0; i < sys.numShards(); ++i)
        if (const Monitor *m = sys.monitor(i))
            for (const BugReport &b : m->reports())
                r.reports.push_back(reportKey(b));
    std::sort(r.reports.begin(), r.reports.end());
    return r;
}

struct Shape
{
    unsigned shards;
    unsigned clusters;
};

constexpr Shape matrixShapes[] = {{1, 1}, {2, 1}, {4, 1}, {4, 2}};
constexpr SchedulerPolicy matrixPolicies[] = {
    SchedulerPolicy::Lockstep, SchedulerPolicy::ParallelBatched};
constexpr Engine matrixEngines[] = {Engine::PerCycle, Engine::RunGrain};

/** Run the full N x policy x engine x topology matrix and demand the
 *  report union matches the N=1 reference bit for bit everywhere. */
void
checkDetectionMatrix(const BenchProfile &p, const std::string &monitor,
                     const char *expectKind, std::size_t expectCount)
{
    ProcessRun ref =
        runProcess(processConfig(p, monitor, 1, 1), p);
    ASSERT_EQ(ref.reports.size(), expectCount);
    for (const std::string &r : ref.reports)
        EXPECT_EQ(r.compare(0, std::string(expectKind).size(),
                            expectKind),
                  0)
            << r;

    for (const Shape &s : matrixShapes)
        for (SchedulerPolicy pol : matrixPolicies)
            for (Engine eng : matrixEngines) {
                ProcessRun run = runProcess(
                    processConfig(p, monitor, s.shards, s.clusters,
                                  pol, eng),
                    p);
                EXPECT_EQ(run.reports, ref.reports)
                    << monitor << " diverged at shards=" << s.shards
                    << " clusters=" << s.clusters
                    << " policy=" << unsigned(pol)
                    << " engine=" << unsigned(eng);
            }
}

// ------------------------------------------------------------------
// The differential matrix.
// ------------------------------------------------------------------

TEST(ThreadMatrix, InjectedRacesDetectedEverywhere)
{
    checkDetectionMatrix(processProfile(3, 0), "RaceCheck",
                         "data-race", 3);
}

TEST(ThreadMatrix, InjectedTaintFlowsDetectedEverywhere)
{
    checkDetectionMatrix(processProfile(0, 2), "SharedTaint",
                         "cross-thread-taint", 2);
}

TEST(ThreadMatrix, CleanRunsStayQuiet)
{
    const BenchProfile clean = processProfile(0, 0);
    for (const char *monitor : {"RaceCheck", "SharedTaint"})
        for (const Shape &s : {Shape{1, 1}, Shape{4, 1}, Shape{4, 2}}) {
            ProcessRun run = runProcess(
                processConfig(clean, monitor, s.shards, s.clusters),
                clean);
            EXPECT_TRUE(run.reports.empty())
                << monitor << " reported on a clean run at shards="
                << s.shards << " clusters=" << s.clusters << ": "
                << run.reports.front();
        }
}

TEST(ThreadMatrix, MonitorsStayInTheirLane)
{
    // Taint flows are lock-ordered hand-offs: no race. Races carry no
    // taint: nothing for SharedTaint.
    const BenchProfile flows = processProfile(0, 2);
    EXPECT_TRUE(
        runProcess(processConfig(flows, "RaceCheck", 2, 1), flows)
            .reports.empty());
    const BenchProfile races = processProfile(3, 0);
    EXPECT_TRUE(
        runProcess(processConfig(races, "SharedTaint", 2, 1), races)
            .reports.empty());
}

TEST(ThreadMatrix, RepeatedRunsAreDeterministic)
{
    const BenchProfile p = processProfile(3, 1);
    for (Engine eng : {Engine::PerCycle, Engine::RunGrain}) {
        const MultiCoreConfig cfg =
            processConfig(p, "RaceCheck", 4, 2,
                          SchedulerPolicy::ParallelBatched, eng);
        ProcessRun a = runProcess(cfg, p);
        ProcessRun b = runProcess(cfg, p);
        EXPECT_TRUE(test::sameStats(a.fingerprint, b.fingerprint))
            << unsigned(eng);
        EXPECT_EQ(a.reports, b.reports) << unsigned(eng);
    }
}

TEST(ThreadMatrix, PolicyAndEngineBitIdenticalPerShape)
{
    // Per-cycle full fingerprints (cycle counts included) match the
    // per-shape reference bit for bit under either scheduler policy.
    // The run-grain engine models timing: its full fingerprint is
    // pinned against its own per-shape reference instead — still
    // policy-invariant — while its reports join the cross-engine
    // detection matrix above.
    const BenchProfile p = processProfile(2, 1);
    for (const Shape &s : {Shape{2, 1}, Shape{4, 2}}) {
        ProcessRun ref = runProcess(
            processConfig(p, "RaceCheck", s.shards, s.clusters), p);
        ProcessRun grainRef = runProcess(
            processConfig(p, "RaceCheck", s.shards, s.clusters,
                          SchedulerPolicy::Lockstep, Engine::RunGrain),
            p);
        EXPECT_EQ(grainRef.reports, ref.reports)
            << "shards=" << s.shards;
        for (SchedulerPolicy pol : matrixPolicies)
            for (Engine eng : matrixEngines) {
                ProcessRun run = runProcess(
                    processConfig(p, "RaceCheck", s.shards, s.clusters,
                                  pol, eng),
                    p);
                const ProcessRun &want =
                    eng == Engine::RunGrain ? grainRef : ref;
                EXPECT_TRUE(
                    test::sameStats(run.fingerprint, want.fingerprint))
                    << "shards=" << s.shards << " policy="
                    << unsigned(pol) << " engine=" << unsigned(eng);
            }
    }
}

TEST(ThreadMatrix, ClusteredShapeRoutesRemoteHeapTraffic)
{
    // Threads share one heap, so a clustered topology must see
    // cross-cluster (remote-slice) L2 traffic from the shared plan.
    const BenchProfile p = processProfile(3, 0);
    ProcessRun run =
        runProcess(processConfig(p, "RaceCheck", 4, 2), p);
    EXPECT_GT(run.result.l2RemoteAccesses, 0u);
}

// ------------------------------------------------------------------
// Capture / replay of a threaded process.
// ------------------------------------------------------------------

TEST(ThreadCapture, ReplayReproducesReportsAndHash)
{
    const BenchProfile p = processProfile(3, 1);
    test::TempFile trace("fade_mt_trace");

    MultiCoreConfig cap = processConfig(p, "RaceCheck", 2, 1);
    cap.traceOut = trace.path();
    const std::uint64_t warm = warmFor(p, 2);

    std::uint64_t capHash = 0;
    std::vector<std::string> capReports;
    {
        MultiCoreSystem sys(cap);
        sys.warmup(warm);
        MultiCoreResult res = sys.run(measureInsts);
        capHash = fingerprintHash(resultFingerprint(sys, res));
        for (unsigned i = 0; i < sys.numShards(); ++i)
            for (const BugReport &b : sys.monitor(i)->reports())
                capReports.push_back(reportKey(b));
        std::sort(capReports.begin(), capReports.end());
        EXPECT_FALSE(capReports.empty());
        sys.closeTrace(capHash);
    }

    MultiCoreConfig rep = replayConfig(trace.path());
    ASSERT_EQ(rep.workloads.size(), 2u);
    EXPECT_EQ(rep.workloads[0].procThreads, p.procThreads);
    const TraceManifest m = TraceReader(trace.path()).manifest();
    ASSERT_TRUE(m.present);

    MultiCoreSystem sys(rep);
    sys.warmup(m.warmupInstructions);
    MultiCoreResult res = sys.run(m.measureInstructions);
    EXPECT_EQ(fingerprintHash(resultFingerprint(sys, res)), capHash);
    std::vector<std::string> repReports;
    for (unsigned i = 0; i < sys.numShards(); ++i)
        for (const BugReport &b : sys.monitor(i)->reports())
            repReports.push_back(reportKey(b));
    std::sort(repReports.begin(), repReports.end());
    EXPECT_EQ(repReports, capReports);
}

TEST(ThreadCapture, ThreadCountMismatchRejectedOnReplay)
{
    const BenchProfile p = processProfile(0, 0);
    test::TempFile trace("fade_mt_mismatch");

    MultiCoreConfig cap = processConfig(p, "RaceCheck", 1, 1);
    cap.traceOut = trace.path();
    {
        MultiCoreSystem sys(cap);
        sys.warmup(warmFor(p, 1));
        sys.run(measureInsts);
        sys.closeTrace();
    }

    MultiCoreConfig rep = replayConfig(trace.path());
    rep.workloads.at(0).procThreads = 0;
    EXPECT_EXIT(MultiCoreSystem{rep}, testing::ExitedWithCode(1),
                "process threads");
}

// ------------------------------------------------------------------
// Guardrails of thread-count / shard / topology resolution. Each rule
// is named by validateConfig() and fatal()ed on by the constructor with
// the same message, so the daemon's rejection and the fatal cannot
// drift apart.
// ------------------------------------------------------------------

void
expectBrokenRule(const MultiCoreConfig &cfg, const char *rule)
{
    EXPECT_NE(validateConfig(cfg).find(rule), std::string::npos)
        << "validateConfig: '" << validateConfig(cfg) << "'";
    EXPECT_EXIT(MultiCoreSystem{cfg}, testing::ExitedWithCode(1), rule);
}

TEST(ThreadGuards, MoreThreadsThanMdRegistersIsFatal)
{
    const BenchProfile p = threadedProfile("ocean", 8);
    MultiCoreConfig cfg = processConfig(p, "RaceCheck", 1, 1);
    expectBrokenRule(cfg, "register file supports");
}

TEST(ThreadGuards, ThreadsMustDivideAcrossShards)
{
    const BenchProfile p = threadedProfile("ocean", 4);
    MultiCoreConfig cfg = processConfig(p, "RaceCheck", 3, 1);
    expectBrokenRule(cfg, "divide evenly");
}

TEST(ThreadGuards, MoreShardsThanThreadsIsFatal)
{
    const BenchProfile p = threadedProfile("ocean", 4);
    MultiCoreConfig cfg = processConfig(p, "RaceCheck", 8, 1);
    expectBrokenRule(cfg, "more shards");
}

TEST(ThreadGuards, ProcessCannotMixWithOtherWorkloads)
{
    MultiCoreConfig cfg =
        processConfig(threadedProfile("ocean", 4), "RaceCheck", 2, 1);
    cfg.workloads.push_back(specProfile("mcf"));
    expectBrokenRule(cfg, "cannot mix");
}

TEST(ThreadGuards, ClusterCountMustDivideShards)
{
    const BenchProfile p = threadedProfile("ocean", 4);
    MultiCoreConfig cfg = processConfig(p, "RaceCheck", 4, 3);
    expectBrokenRule(cfg, "divide evenly across");
}

TEST(ThreadGuards, FadesPerShardOutOfRangeIsFatal)
{
    const BenchProfile p = threadedProfile("ocean", 4);
    MultiCoreConfig cfg = processConfig(p, "RaceCheck", 2, 1);
    cfg.shard.fadesPerShard = maxFadesPerShard + 1;
    expectBrokenRule(cfg, "fadesPerShard must be in");
}

// ------------------------------------------------------------------
// FadeGroup group-serialization property (K = 2, randomized).
// ------------------------------------------------------------------

TEST(FadeGroupSerial, RandomizedStreamSerializesHighLevelEvents)
{
    for (std::uint64_t seed : {11u, 23u, 47u}) {
        MonitorContext ctx(0);
        RaceCheck mon;
        FadeGroup g(2, FadeParams{}, ctx, nullptr, 0);
        for (unsigned u = 0; u < g.size(); ++u)
            mon.programFade(g.unit(u).eventTable(), g.unit(u).invRf());
        BoundedQueue<MonEvent> eq(8);
        BoundedQueue<UnfilteredEvent> ueq(16);
        g.bind(&eq, &ueq);

        // Random mix: filterable instruction events, SUU stack bursts,
        // and software-only synchronization events.
        Rng rng(seed);
        std::vector<MonEvent> events;
        std::uint64_t serializing = 0;
        for (unsigned i = 0; i < 400; ++i) {
            MonEvent ev;
            ev.tid = ThreadId(rng.range(4));
            ev.appPc = 0x1000 + 4 * i;
            ev.seq = i + 1;
            const unsigned roll = rng.range(100);
            if (roll < 70) {
                ev.kind = EventKind::Inst;
                ev.eventId = rng.range(2) ? evStore : evLoad;
                ev.appAddr = procSharedBase + 4 * rng.range(1024);
                ev.numSrc = 1;
            } else if (roll < 85) {
                ev.kind = rng.range(2) ? EventKind::LockAcquire
                                       : EventKind::LockRelease;
                ev.appAddr = procLockBase + 64 * rng.range(6);
                ev.len = rng.range(16);
                ++serializing;
            } else {
                ev.kind = EventKind::StackCall;
                ev.appAddr = 0x7fff0000 + 64 * rng.range(64);
                ev.len = 16 + 8 * rng.range(4);
                ++serializing;
            }
            events.push_back(ev);
        }

        std::size_t next = 0;
        Cycle now = 0;
        constexpr Cycle limit = 500000;
        while ((next < events.size() || !eq.empty() || !ueq.empty() ||
                !g.quiesced()) &&
               now < limit) {
            while (next < events.size() && eq.push(events[next]))
                ++next;
            const bool quietBefore = g.quiesced();
            const std::uint64_t serBefore = g.serialized();
            g.tick(now++);
            if (g.serialized() != serBefore) {
                // A serializing event enters only a fully quiesced
                // group, and at most one per cycle.
                EXPECT_TRUE(quietBefore) << "cycle " << now - 1;
                EXPECT_EQ(g.serialized(), serBefore + 1);
            }
            while (!ueq.empty()) {
                UnfilteredEvent u = ueq.pop();
                g.handlerDone(u.ev);
            }
        }

        ASSERT_LT(now, limit) << "group failed to drain (seed "
                              << seed << ")";
        EXPECT_TRUE(eq.empty());
        EXPECT_TRUE(g.quiesced());
        EXPECT_EQ(g.serialized(), serializing);
        // Strict rotation: every event admitted, split evenly.
        const std::uint64_t s0 = g.steeredTo(0);
        const std::uint64_t s1 = g.steeredTo(1);
        EXPECT_EQ(s0 + s1, events.size());
        EXPECT_LE(s0 > s1 ? s0 - s1 : s1 - s0, 1u);
    }
}

} // namespace
} // namespace fade
