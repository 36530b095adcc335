/**
 * @file
 * Multi-core scaling study (beyond the paper's per-core evaluation;
 * Section 7 argues FADE replicates across a CMP). Every point is one
 * per-cycle Lockstep run of a multiprogrammed SPEC mix with MemLeak.
 * Two sweeps:
 *
 *  - Flat scaling: N ∈ {1, 2, 4, 8} {core, FADE, MD cache} shards
 *    behind one shared L2. The N=1 row doubles as a regression check:
 *    it must match the legacy single-core system.
 *
 *  - Topology scaling: the same mix swept over NUMA-style clustered
 *    shapes (system/topology.hh) — clusters ∈ {1, 2, 4} shared-L2
 *    slices behind the home-node directory × fadesPerShard ∈ {1, 2}
 *    filter units.
 *
 * The harness exits 1 on an N=1 MISMATCH or on a point that monitored
 * no event. Scheduler-policy invariance on these shapes, under both
 * engines, is held by ctest (Scheduler.ParallelBitIdenticalToLockstep,
 * Topology.DeterministicAcrossPoliciesEnginesAndRuns,
 * RunGrainEngine.PolicyInvariantAcrossShardCounts); host time is
 * measured by perfbench (docs/BENCHMARKS.md).
 */

#include "bench/common.hh"
#include "system/multicore.hh"

using namespace fade;
using namespace fade::bench;

namespace
{

MultiCoreResult
runPoint(const std::vector<BenchProfile> &mix, unsigned n,
         unsigned clusters = 1, unsigned fadesPerShard = 1)
{
    MultiCoreConfig cfg;
    cfg.numShards = n;
    cfg.monitor = "MemLeak";
    cfg.workloads = mix;
    cfg.topology.clusters = clusters;
    cfg.shard.fadesPerShard = fadesPerShard;
    MultiCoreSystem sys(cfg);
    sys.warmup(warmupInsts);
    return sys.run(measureInsts);
}

/** A run that monitored nothing shows nothing: report it and fail. */
bool
vacuous(const MultiCoreResult &r)
{
    if (r.totalEvents != 0)
        return false;
    std::printf("VACUOUS: the per-cycle lockstep run monitored 0 events\n");
    return true;
}

/** One flat shard count. Returns false on a failed check (already
 *  reported). */
bool
flatSweep(const std::vector<BenchProfile> &mix, unsigned n,
          const Measured &legacy, double *ipc1)
{
    const CoreParams shardCore = MultiCoreConfig{}.shard.core;
    header(("Fig. 12: sharded multi-core scaling, N = " +
            std::to_string(n) + " (MemLeak, SPEC mix)")
               .c_str());

    const MultiCoreResult r = runPoint(mix, n);
    if (vacuous(r))
        return false;

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
                const MultiCoreResult r = runPoint(mix, n, clusters, fades);
                if (vacuous(r))
                    return false;
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
    return true;
}

} // namespace

int
main()
{
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
