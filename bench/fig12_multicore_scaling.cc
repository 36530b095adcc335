/**
 * @file
 * Multi-core scaling study (beyond the paper's per-core evaluation;
 * Section 7 argues FADE replicates across a CMP). Two sweeps:
 *
 *  - Flat scaling: N ∈ {1, 2, 4, 8} {core, FADE, MD cache} shards
 *    behind one shared L2, running a multiprogrammed SPEC mix with
 *    MemLeak. Each N runs under every scheduler policy × intra-shard
 *    engine combination — {Lockstep, ParallelBatched} × {per-cycle,
 *    run-grain} — and the harness hard-checks that each engine is
 *    policy-invariant bit for bit and that the per-cycle reference
 *    monitored at least one event, before reporting wall clock.
 *    Run-grain is NOT compared against per-cycle
 *    here: its timing model slices the warmup/measure windows at
 *    different stream positions, and MemLeak's handler-prepare
 *    feedback diverges functionally by design (the matched-window
 *    cross-engine equality lives in tests/test_pipeline.cc and
 *    test_tracefile.cc; docs/ARCHITECTURE.md documents the divergence
 *    model). The N=1 row doubles as a regression check: it must match
 *    the legacy single-core system.
 *
 *  - Topology scaling: the same mix swept over NUMA-style clustered
 *    shapes (system/topology.hh) — clusters ∈ {1, 2, 4} shared-L2
 *    slices behind the home-node directory × fadesPerShard ∈ {1, 2}
 *    filter units — with a per-shape determinism hard-check:
 *    Lockstep vs ParallelBatched must agree bit for bit under each
 *    engine.
 *
 * One machine-readable JSON line is emitted per (N, policy, engine,
 * clusters, fadesPerShard) so BENCH_*.json trajectories can track
 * events/sec across PRs (docs/BENCHMARKS.md documents the fields).
 * `--smoke` runs a reduced 2×2-cluster matrix with short slices — the
 * Release CI job uses it to exercise the cluster path every build.
 */

#include <cstring>

#include "bench/common.hh"
#include "system/multicore.hh"

using namespace fade;
using namespace fade::bench;

namespace
{

struct TimedRun
{
    MultiCoreResult result;
    double wallSeconds = 0.0;
    /** Full simulated-state fingerprint (resultFingerprint). */
    std::vector<std::uint64_t> fingerprint;
};

std::uint64_t gWarm = warmupInsts;
std::uint64_t gMeasure = measureInsts;

MultiCoreConfig
baseConfig(const std::vector<BenchProfile> &mix, unsigned n,
           SchedulerPolicy pol, Engine eng, unsigned clusters = 1,
           unsigned fadesPerShard = 1)
{
    MultiCoreConfig cfg;
    cfg.numShards = n;
    cfg.monitor = "MemLeak";
    cfg.workloads = mix;
    cfg.scheduler.policy = pol;
    cfg.engine = eng;
    cfg.topology.clusters = clusters;
    cfg.shard.fadesPerShard = fadesPerShard;
    return cfg;
}

TimedRun
runConfig(const MultiCoreConfig &cfg)
{
    MultiCoreSystem sys(cfg);
    sys.warmup(gWarm);
    // Time only the measured run, via the scheduler's own accounting:
    // warmup ends in a sequential per-shard drain that would dilute
    // the policy comparison.
    sys.scheduler().resetStats();
    TimedRun t;
    t.result = sys.run(gMeasure);
    t.wallSeconds = sys.scheduler().stats().wallSeconds;
    t.fingerprint = resultFingerprint(sys, t.result);
    return t;
}

constexpr Engine kEngines[] = {Engine::PerCycle, Engine::RunGrain};

/** A reference run that monitored nothing makes every comparison
 *  against it vacuous: report it and fail. */
bool
vacuous(const TimedRun &ref, const char *where)
{
    if (ref.result.totalEvents != 0)
        return false;
    std::printf("VACUOUS: the %s reference run monitored 0 events\n",
                where);
    return true;
}

const char *
policyName(SchedulerPolicy p)
{
    return p == SchedulerPolicy::Lockstep ? "lockstep" : "parallel";
}

void
jsonLine(unsigned n, SchedulerPolicy pol, Engine eng, unsigned clusters,
         unsigned fadesPerShard, const TimedRun &t)
{
    const MultiCoreResult &r = t.result;
    std::printf("{\"bench\":\"fig12_multicore_scaling\",\"n\":%u,"
                "\"policy\":\"%s\",\"engine\":\"%s\","
                "\"clusters\":%u,\"fades_per_shard\":%u,"
                "\"instructions\":%llu,\"events\":%llu,"
                "\"makespan_cycles\":%llu,\"aggregate_ipc\":%.4f,"
                "\"l2_local\":%llu,\"l2_remote\":%llu,"
                "\"wall_s\":%.6f,\"events_per_s\":%.0f}\n",
                n, policyName(pol), engineName(eng), clusters,
                fadesPerShard,
                (unsigned long long)r.totalInstructions,
                (unsigned long long)r.totalEvents,
                (unsigned long long)r.cycles, r.aggregateIpc,
                (unsigned long long)r.l2LocalAccesses,
                (unsigned long long)r.l2RemoteAccesses,
                t.wallSeconds, r.totalEvents / t.wallSeconds);
}

/** Flat policy × engine sweep at one shard count. Returns false on a
 *  divergence (already reported). */
bool
flatSweep(const std::vector<BenchProfile> &mix, unsigned n,
          const Measured &legacy, double *ipc1)
{
    const CoreParams shardCore = MultiCoreConfig{}.shard.core;
    header(("Fig. 12: sharded multi-core scaling, N = " +
            std::to_string(n) + " (MemLeak, SPEC mix)")
               .c_str());

    // All four policy × engine combinations; index [engine][policy].
    // The run-grain timing model slices windows differently (so it is
    // not compared against per-cycle here), but each engine must be
    // policy-invariant bit for bit.
    TimedRun runs[2][2];
    for (int e = 0; e < 2; ++e) {
        for (auto pol : {SchedulerPolicy::Lockstep,
                         SchedulerPolicy::ParallelBatched})
            runs[e][pol == SchedulerPolicy::ParallelBatched] =
                runConfig(baseConfig(mix, n, pol, kEngines[e]));
        if (runs[e][0].fingerprint != runs[e][1].fingerprint) {
            std::printf("DIVERGENCE at N=%u: engine %s is not "
                        "policy-invariant\n",
                        n, engineName(kEngines[e]));
            return false;
        }
    }
    const TimedRun &reference = runs[0][0];
    if (vacuous(reference, "per-cycle lockstep"))
        return false;

    const MultiCoreResult &r = reference.result;
    TextTable t;
    t.header({"shard", "workload", "IPC", "slowdown", "filtering",
              "EQ p95", "cycles"});
    for (const ShardResult &s : r.shards) {
        BenchProfile prof = shardWorkload(mix, s.shard);
        double base = double(baselineCycles(prof, shardCore));
        t.row({std::to_string(s.shard), s.workload,
               fmt("%.2f", s.run.appIpc),
               fmtX(double(s.run.cycles) / base),
               fmtPct(s.filteringRatio),
               std::to_string(s.eqOccupancy.percentile(0.95)),
               std::to_string(s.run.cycles)});
    }
    t.print();

    std::printf("\naggregate: IPC %.2f | makespan %llu cycles | "
                "events %llu | filtering %.1f%% | "
                "cross-shard events %llu (must be 0)\n",
                r.aggregateIpc, (unsigned long long)r.cycles,
                (unsigned long long)r.totalEvents,
                r.filteringRatio * 100.0,
                (unsigned long long)r.fade.crossShardEvents);
    std::printf("wall-clock (each engine policy-invariant):\n");
    for (int e = 0; e < 2; ++e) {
        const TimedRun &lock = runs[e][0];
        const TimedRun &par = runs[e][1];
        std::printf("  engine %-8s lockstep %.3fs | parallel %.3fs "
                    "| policy speedup %.2fx\n",
                    engineName(kEngines[e]), lock.wallSeconds,
                    par.wallSeconds,
                    lock.wallSeconds / par.wallSeconds);
    }
    std::printf("  rungrain/percycle engine speedup (lockstep): %.2fx\n",
                runs[0][0].wallSeconds / runs[1][0].wallSeconds);
    for (int e = 0; e < 2; ++e)
        for (auto pol : {SchedulerPolicy::Lockstep,
                         SchedulerPolicy::ParallelBatched})
            jsonLine(n, pol, kEngines[e], 1, 1,
                     runs[e][pol == SchedulerPolicy::ParallelBatched]);

    if (n == 1) {
        *ipc1 = r.aggregateIpc;
        bool match = r.cycles == legacy.run.cycles &&
                     r.totalInstructions == legacy.run.appInstructions &&
                     r.totalEvents == legacy.run.monitoredEvents;
        std::printf("N=1 vs legacy single-core System: %s "
                    "(cycles %llu vs %llu)\n",
                    match ? "MATCH" : "MISMATCH",
                    (unsigned long long)r.cycles,
                    (unsigned long long)legacy.run.cycles);
        if (!match)
            return false;
    } else {
        std::printf("throughput scaling vs N=1: %.2fx over %ux cores\n",
                    r.aggregateIpc / *ipc1, n);
    }
    std::printf("\n");
    return true;
}

/**
 * One clustered shape: run both policies under both engines,
 * hard-check each engine's pair agrees bit for bit (the cross-topology
 * determinism gate), emit the JSON lines, and return the per-cycle
 * lockstep reference for the table.
 */
bool
topologyPoint(const std::vector<BenchProfile> &mix, unsigned n,
              unsigned clusters, unsigned fades, TimedRun *out)
{
    TimedRun ref = runConfig(baseConfig(mix, n,
                                        SchedulerPolicy::Lockstep,
                                        Engine::PerCycle, clusters,
                                        fades));
    if (vacuous(ref, "per-cycle lockstep"))
        return false;
    TimedRun cross = runConfig(
        baseConfig(mix, n, SchedulerPolicy::ParallelBatched,
                   Engine::PerCycle, clusters, fades));
    if (cross.fingerprint != ref.fingerprint) {
        std::printf("DIVERGENCE at N=%u clusters=%u fades=%u: "
                    "per-cycle is not policy-invariant\n",
                    n, clusters, fades);
        return false;
    }
    TimedRun grainLock = runConfig(
        baseConfig(mix, n, SchedulerPolicy::Lockstep, Engine::RunGrain,
                   clusters, fades));
    TimedRun grain = runConfig(
        baseConfig(mix, n, SchedulerPolicy::ParallelBatched,
                   Engine::RunGrain, clusters, fades));
    if (grain.fingerprint != grainLock.fingerprint) {
        std::printf("DIVERGENCE at N=%u clusters=%u fades=%u: "
                    "run-grain is not policy-invariant\n",
                    n, clusters, fades);
        return false;
    }
    jsonLine(n, SchedulerPolicy::Lockstep, Engine::PerCycle, clusters,
             fades, ref);
    jsonLine(n, SchedulerPolicy::ParallelBatched, Engine::PerCycle,
             clusters, fades, cross);
    jsonLine(n, SchedulerPolicy::ParallelBatched, Engine::RunGrain,
             clusters, fades, grain);
    *out = std::move(ref);
    return true;
}

bool
topologySweep(const std::vector<BenchProfile> &mix)
{
    header("Fig. 12 extension: clustered topologies "
           "(clusters x fadesPerShard, MemLeak, SPEC mix)");
    TextTable t;
    t.header({"N", "clusters", "fades", "makespan", "agg IPC",
              "remote%", "filtering"});
    for (unsigned n : {2u, 4u, 8u}) {
        for (unsigned clusters : {1u, 2u, 4u}) {
            if (clusters > n || n % clusters != 0)
                continue;
            for (unsigned fades : {1u, 2u}) {
                if (clusters == 1 && fades == 1)
                    continue; // the flat sweep above covers it
                TimedRun run;
                if (!topologyPoint(mix, n, clusters, fades, &run))
                    return false;
                const MultiCoreResult &r = run.result;
                double routed = double(r.l2LocalAccesses +
                                       r.l2RemoteAccesses);
                t.row({std::to_string(n), std::to_string(clusters),
                       std::to_string(fades),
                       std::to_string(r.cycles),
                       fmt("%.2f", r.aggregateIpc),
                       fmtPct(routed ? r.l2RemoteAccesses / routed
                                     : 0.0),
                       fmtPct(r.filteringRatio)});
            }
        }
    }
    t.print();
    std::printf("\nevery shape policy-invariant bit for bit under "
                "both engines\n\n");
    return true;
}

/** CI smoke: a short 2x2-cluster run exercising directory routing,
 *  multi-FADE steering, and all four policy x engine combinations. */
int
smoke()
{
    gWarm = 8000;
    gMeasure = 16000;
    const std::vector<BenchProfile> mix = multiprogramWorkloads("hmmer");
    header("fig12 --smoke: 2x2 clustered topology, 2 FADEs/shard");
    // Run-grain slices windows differently from per-cycle (not
    // compared), but each engine must be policy-invariant bitwise.
    TimedRun ref; // per-cycle lockstep
    for (Engine eng : kEngines) {
        TimedRun lock;
        for (auto pol : {SchedulerPolicy::Lockstep,
                         SchedulerPolicy::ParallelBatched}) {
            // 2 clusters x 2 shards.
            MultiCoreConfig cfg = baseConfig(mix, 4, pol, eng, 2, 2);
            TimedRun t = runConfig(cfg);
            jsonLine(4, pol, eng, 2, 2, t);
            if (pol == SchedulerPolicy::Lockstep) {
                lock = std::move(t);
            } else if (t.fingerprint != lock.fingerprint) {
                std::printf("SMOKE DIVERGENCE: engine %s is not "
                            "policy-invariant\n",
                            engineName(eng));
                return 1;
            }
        }
        if (eng == Engine::PerCycle)
            ref = std::move(lock);
    }
    if (vacuous(ref, "per-cycle lockstep"))
        return 1;
    const MultiCoreResult &r = ref.result;
    if (r.fade.crossShardEvents != 0 || r.l2RemoteAccesses == 0) {
        std::printf("SMOKE FAILURE: cross-shard events %llu, "
                    "remote accesses %llu\n",
                    (unsigned long long)r.fade.crossShardEvents,
                    (unsigned long long)r.l2RemoteAccesses);
        return 1;
    }
    std::printf("smoke OK: 4 shards, 2 clusters, remote share %.1f%%, "
                "all 4 combinations checked (each engine "
                "policy-invariant)\n",
                100.0 * r.l2RemoteAccesses /
                    double(r.l2LocalAccesses + r.l2RemoteAccesses));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0)
        return smoke();

    const std::vector<BenchProfile> mix = multiprogramWorkloads("hmmer");
    // Slowdowns normalize against a baseline simulated with the same
    // core the shards run (the MultiCoreConfig default).
    Measured legacy = measure(SystemConfig{}, "MemLeak", mix[0]);

    double ipc1 = 0.0;
    for (unsigned n : {1u, 2u, 4u, 8u})
        if (!flatSweep(mix, n, legacy, &ipc1))
            return 1;
    if (!topologySweep(mix))
        return 1;
    return 0;
}
