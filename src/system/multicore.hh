/**
 * @file
 * Sharded multi-core monitoring system. The paper evaluates FADE per
 * core and argues the design replicates across a CMP (Section 7); this
 * subsystem models that scaling point: N shards, each a full
 * {application core, event queue, FADE, MD cache, monitor} slice as in
 * Fig. 8, sharing one L2/DRAM model. Workloads are distributed to
 * shards round-robin from the benchmark profile list, shards advance
 * in bounded slices under the shard scheduler (system/scheduler.hh) —
 * sequentially (Lockstep) or on parallel host threads
 * (ParallelBatched), with bit-identical results either way — and
 * statistics roll up into per-shard plus aggregate results.
 *
 * The single-core MonitoringSystem is exactly the N=1 case: shard 0
 * runs the unmodified profile, so its results are bit-identical to a
 * standalone MonitoringSystem with a private L2 of the same geometry,
 * for every scheduler policy and slice length.
 *
 * MultiCoreConfig::topology generalizes the memory side into a
 * NUMA-style clustered system (system/topology.hh, mem/directory.hh):
 * `numShards` shards split evenly across `clusters` clusters, each with
 * its own shared-L2 slice, addresses routed to their home slice by the
 * directory with a remote-cluster penalty, and shard.fadesPerShard
 * filter units per shard (FadeGroup). The flat defaults (`clusters =
 * 1, fadesPerShard = 1`) reproduce the pre-topology system bit for bit
 * (tests/test_topology.cc, docs/TOPOLOGY.md).
 */

#ifndef FADE_SYSTEM_MULTICORE_HH
#define FADE_SYSTEM_MULTICORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/directory.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "system/topology.hh"
#include "trace/tracefile.hh"

namespace fade
{

struct ProcessShared;

/** Configuration of the sharded system. */
struct MultiCoreConfig
{
    /** Number of {core, FADE, MD cache} shards. */
    unsigned numShards = 1;
    /** Per-shard system configuration (shardId is assigned per shard). */
    SystemConfig shard;
    /** Lifeguard instantiated per shard ("" = unmonitored baseline). */
    std::string monitor = "MemLeak";
    /**
     * Workload profiles, dealt round-robin: shard i runs
     * workloads[i % workloads.size()]. When a profile is reused by more
     * than one shard its RNG seed is offset by the shard index so the
     * copies decorrelate; shard 0 always runs its profile verbatim.
     */
    std::vector<BenchProfile> workloads;
    /** Execution policy, slice length and worker count. Affects wall
     *  clock only (plus interference granularity via sliceTicks);
     *  simulated results are policy- and thread-count-invariant. */
    SchedulerConfig scheduler;
    /**
     * Intra-shard execution engine, applied to every shard (overrides
     * shard.engine). Engine::RunGrain runs each shard's slice through
     * the run-grain driver; its functional results match
     * Engine::PerCycle (tests/test_pipeline.cc), its timing is
     * modeled.
     */
    Engine engine = Engine::PerCycle;
    /** Cluster shape: shared-L2 slices and the remote-slice penalty
     *  (system/topology.hh). */
    Topology topology;
    /**
     * Replay: drive every shard from this captured trace file instead
     * of live generators ("" = live). Stream i feeds shard i; the
     * trace must hold exactly numShards streams and the workload list
     * must match the captured streams — replayConfig() reconstructs a
     * matching config from the trace itself.
     */
    std::string traceIn;
    /**
     * Capture: tee every shard's application stream to this trace
     * file ("" = no capture). Finish the file with closeTrace() after
     * the measured run; a writer torn down without it still produces
     * a readable trace, but without the replay manifest.
     */
    std::string traceOut;
};

/** One shard's slice of a measured run. */
struct ShardResult
{
    unsigned shard = 0;
    std::string workload;
    RunResult run;
    FadeStats fade;
    double filteringRatio = 0.0;
    /** Event-queue occupancy distribution of this shard's slice. */
    Log2Histogram eqOccupancy;
    /** Bug reports raised during the measured slice (not warmup). */
    std::uint64_t bugReports = 0;
    /** Home cluster of this shard. */
    unsigned cluster = 0;
    /** L2-bound accesses routed to the shard's own cluster's slice /
     *  to a remote slice (remote penalty paid). In the flat 1-cluster
     *  system every access is local, so l2Remote is always 0. */
    std::uint64_t l2Local = 0;
    std::uint64_t l2Remote = 0;
};

/** Aggregated results of one measured multi-core run. */
struct MultiCoreResult
{
    std::vector<ShardResult> shards;

    /** Makespan: cycles until the slowest shard finished its quota. */
    std::uint64_t cycles = 0;
    std::uint64_t totalInstructions = 0;
    std::uint64_t totalEvents = 0;
    /** System throughput: total instructions / makespan. */
    double aggregateIpc = 0.0;
    /** Unweighted mean of per-shard IPCs. */
    double meanShardIpc = 0.0;
    /** Event-weighted filtering ratio across shards. */
    double filteringRatio = 0.0;
    /** FADE counters summed over all shards (and, within each shard,
     *  over its filter units). */
    FadeStats fade;
    /** Event-queue occupancy merged over all shards. */
    Log2Histogram eqOccupancy;
    /** Directory routing totals (every access is local — remote 0 —
     *  in the flat 1-cluster system). */
    std::uint64_t l2LocalAccesses = 0;
    std::uint64_t l2RemoteAccesses = 0;
};

/**
 * N MonitoringSystem shards behind one shared L2, driven by the shard
 * scheduler in bounded slices; a shard that has retired its
 * instruction quota stops ticking while the rest complete, exactly
 * like the per-slice termination of the single-core run() loop.
 *
 * Thread-safety contract: the public interface is single-threaded.
 * Under SchedulerPolicy::ParallelBatched the scheduler internally
 * drives shards on worker threads, but warmup()/run() only return once
 * the workers are quiescent, and results do not depend on the policy
 * (see system/scheduler.hh for the determinism argument).
 */
class MultiCoreSystem
{
  public:
    explicit MultiCoreSystem(const MultiCoreConfig &cfg);
    ~MultiCoreSystem();

    /** Warm every shard with @p instructions app instructions, then
     *  drain and zero statistics. */
    void warmup(std::uint64_t instructions);

    /** Run a measured slice of @p instructions per shard. */
    MultiCoreResult run(std::uint64_t instructions);

    /**
     * Resumable phase protocol — warmup() and run() split into arm /
     * advance / finish so an external driver (the monitoring daemon's
     * session pool) can interleave many systems at slice-epoch
     * granularity. Results are bit-identical to the monolithic calls:
     * advanceRun() executes exactly the epochs the one-shot loop would
     * have (ShardScheduler::stepEpochs), and the finish step performs
     * the very same drain/reset (warmup) or aggregation (measure).
     *
     *   beginWarmup(w); while (!advanceRun(k)) ...; finishWarmup();
     *   beginMeasure(m); while (!advanceRun(k)) ...;
     *   MultiCoreResult r = finishMeasure();
     *
     * One phase may be active at a time; warmup()/run() are these
     * calls composed.
     */
    void beginWarmup(std::uint64_t instructions);
    void beginMeasure(std::uint64_t instructions);
    /** Advance the armed phase by at most @p maxEpochs slice epochs;
     *  true when the phase's instruction target is reached. */
    bool advanceRun(std::uint64_t maxEpochs);
    void finishWarmup();
    MultiCoreResult finishMeasure();

    /** App instructions retired across all shards since the current
     *  phase's statistics baseline (progress reporting). */
    std::uint64_t retiredTotal() const;
    /** Monitored events produced across all shards since the same
     *  baseline. */
    std::uint64_t producedTotal() const;

    /**
     * Drain every shard, then concatenate the shards' engine-invariant
     * functional fingerprints (MonitoringSystem::functionalFingerprint
     * — retirement/event counts, filter verdicts, handler work,
     * monitor reports; no cycle-dependent values). The run-grain
     * engine reproduces this vector bit for bit against the per-cycle
     * reference when both engines cover the same per-shard instruction
     * windows — e.g. replaying a run-grain-captured trace, whose
     * streams end at exact retirement quotas (tests/test_tracefile.cc).
     * Finishes the monitors; call once, after the last run() slice.
     */
    std::vector<std::uint64_t> functionalFingerprint();

    unsigned numShards() const { return unsigned(shards_.size()); }
    MonitoringSystem &shard(unsigned i) { return *shards_.at(i); }
    const MonitoringSystem &shard(unsigned i) const
    {
        return *shards_.at(i);
    }
    Monitor *monitor(unsigned i) { return monitors_.at(i).get(); }

    /** Shared-L2 slice 0 — the whole shared L2 in the flat 1-cluster
     *  system; use directory() for the other slices. */
    const Cache &sharedL2() const { return dir_.slice(0); }

    /** The clustered last-level cache behind all shards. */
    HomeDirectory &directory() { return dir_; }
    const HomeDirectory &directory() const { return dir_; }

    unsigned numClusters() const { return dir_.numSlices(); }
    /** Home cluster of shard @p i. */
    unsigned clusterOf(unsigned i) const { return shardClusters_.at(i); }

    /** The shard scheduler (host-side wall-clock accounting). */
    ShardScheduler &scheduler() { return *sched_; }
    const ShardScheduler &scheduler() const { return *sched_; }

    /** Per-process monitor state shared by all shards' monitor
     *  instances, or nullptr for non-process workloads
     *  (monitor/interleave.hh). */
    ProcessShared *processShared() { return procShared_.get(); }

    /** The capture writer (nullptr when traceOut is empty). */
    TraceWriter *traceWriter() { return writer_.get(); }
    /** The replay reader (nullptr when traceIn is empty). */
    const TraceReader *traceReader() const { return reader_.get(); }

    /**
     * Finish a capture (traceOut configured): write the replay
     * manifest — the warmup/measure instruction counts driven so far
     * and every result-affecting knob — into the footer and close the
     * file. The overload records @p resultHash (fingerprintHash() of
     * the measured run) so replays can be hard-checked against the
     * capture (`trace_tool --verify`).
     */
    void closeTrace();
    void closeTrace(std::uint64_t resultHash);

  private:
    void finishTrace(bool hasResult, std::uint64_t resultHash);

    /** Active resumable phase (beginWarmup/beginMeasure). */
    enum class Phase : std::uint8_t
    {
        Idle,
        Warmup,
        Measure,
    };

    MultiCoreConfig cfg_;
    Phase phase_ = Phase::Idle;
    /** Monitor report counts at beginMeasure() (per-shard deltas). */
    std::vector<std::size_t> reportsBefore_;
    std::unique_ptr<TraceReader> reader_;
    std::unique_ptr<TraceWriter> writer_;
    /** Instructions driven so far (recorded in the capture manifest). */
    std::uint64_t capturedWarmup_ = 0;
    std::uint64_t capturedRun_ = 0;
    HomeDirectory dir_;
    std::vector<unsigned> shardClusters_;
    /** Shared log/analysis state of a multi-threaded process workload
     *  (null otherwise); outlives the shards' monitor bindings. */
    std::unique_ptr<ProcessShared> procShared_;
    std::vector<std::unique_ptr<Monitor>> monitors_;
    std::vector<std::unique_ptr<MonitoringSystem>> shards_;
    std::vector<std::string> workloadNames_;
    std::unique_ptr<ShardScheduler> sched_;
};

/**
 * The first rule @p cfg breaks, as the message MultiCoreSystem's
 * constructor fatal()s with, or "" if it builds without a fatal(). The
 * one home of these rules; the daemon rejects client input with it.
 */
std::string validateConfig(const MultiCoreConfig &cfg);

/**
 * The profile shard @p idx runs under round-robin distribution of
 * @p workloads (seed-offset applied for repeated profiles).
 */
BenchProfile shardWorkload(const std::vector<BenchProfile> &workloads,
                           unsigned idx);

/**
 * Every simulated value a measured run produced — aggregate and
 * per-shard results, all FADE counters (merged over each shard's
 * filter units), occupancy histograms, bug-report counts, per-slice
 * LLC hit/miss counters, and (for clustered topologies) per-shard
 * directory routing counters — flattened into one comparable vector.
 * The flat 1-cluster layout is unchanged from the pre-topology system,
 * so flat fingerprints stay comparable across the refactor. Two runs
 * are bit-identical iff their fingerprints compare equal; the
 * scheduler/topology tests and the fig12 harness use this to assert
 * ParallelBatched == Lockstep and batched == per-cycle on every shape.
 */
std::vector<std::uint64_t> resultFingerprint(MultiCoreSystem &sys,
                                             const MultiCoreResult &r);

/**
 * Hash of the result-affecting capture configuration, stamped into the
 * trace header at capture time. Engine, scheduler policy, and host
 * thread count are deliberately excluded: they are proven
 * result-invariant (tests/test_scheduler.cc, test_pipeline.cc), so a
 * trace captured under any of them replays under all of them.
 */
std::uint64_t traceConfigFingerprint(const MultiCoreConfig &cfg);

/**
 * Reconstruct the run configuration of a captured trace from its
 * manifest and per-stream metadata: shape, monitor, queue/core knobs,
 * and one workload entry per stream (name/seed/threads exactly as
 * captured — the behavioural profile fields are irrelevant under
 * replay, where no generator runs). The returned config has traceIn
 * set, so constructing a MultiCoreSystem from it replays the capture;
 * drive it with the manifest's warmup/measure instruction counts to
 * reproduce the recorded run bit for bit. Throws TraceError when the
 * file is unreadable, carries no manifest, or its manifest's shard
 * count disagrees with its streams or clusters x shardsPerCluster.
 */
MultiCoreConfig replayConfig(const std::string &path);

} // namespace fade

#endif // FADE_SYSTEM_MULTICORE_HH
