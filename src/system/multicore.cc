#include "system/multicore.hh"

#include <algorithm>

#include "core/regfiles.hh"
#include "monitor/factory.hh"
#include "monitor/interleave.hh"
#include "sim/logging.hh"

namespace fade
{

std::string
validateConfig(const MultiCoreConfig &cfg)
{
    using log_detail::str;
    const unsigned n = cfg.numShards;
    const unsigned clusters = cfg.topology.clusters;
    if (clusters == 0)
        return "topology: clusters must be >= 1";
    if (cfg.shard.fadesPerShard == 0 ||
        cfg.shard.fadesPerShard > maxFadesPerShard)
        return str("topology: fadesPerShard must be in [1, ",
                   maxFadesPerShard, "]");
    if (n == 0)
        return "topology: numShards must be >= 1";
    if (n % clusters != 0)
        return str("topology: numShards (", n,
                   ") must divide evenly across ", clusters, " clusters");
    if (n > 256)
        return "shard tag is 8 bits (max 256 shards)";
    if (cfg.scheduler.sliceTicks == 0)
        return "sliceTicks must be >= 1";
    if (cfg.shard.core.width == 0)
        return "core width must be positive";
    if (cfg.shard.core.robSize == 0)
        return "ROB size must be positive";
    const std::vector<std::string> &monitors = monitorNames();
    if (!cfg.monitor.empty() &&
        std::find(monitors.begin(), monitors.end(), cfg.monitor) ==
            monitors.end())
        return "unknown monitor: " + cfg.monitor;
    if (cfg.workloads.empty())
        return "multi-core system needs >= 1 workload";

    // Multi-threaded process mode: every shard hosts threads of ONE
    // process (thread t on shard t % numShards), so a process profile
    // cannot share the system with unrelated workloads, and the thread
    // count must cover (and divide across) the shards.
    const BenchProfile &first = cfg.workloads.front();
    const unsigned threads = first.procThreads;
    for (const BenchProfile &p : cfg.workloads)
        if ((p.procThreads > 0) != (threads > 0) ||
            (threads > 0 && (p.procThreads != threads ||
                             p.name != first.name || p.seed != first.seed)))
            return "a multi-threaded process profile cannot mix with "
                   "other workloads";
    if (threads == 0)
        return "";
    if (threads > maxThreads)
        return str("process has ", threads,
                   " threads but the MD register file supports ",
                   maxThreads);
    if (n > threads)
        return str("more shards (", n, ") than process threads (",
                   threads, ")");
    if (threads % n != 0)
        return str("process threads (", threads,
                   ") must divide evenly across shards (", n, ")");
    return "";
}

BenchProfile
shardWorkload(const std::vector<BenchProfile> &workloads, unsigned idx)
{
    panic_if(workloads.empty(), "shardWorkload() of an empty list");
    unsigned pos = idx % unsigned(workloads.size());
    BenchProfile p = workloads[pos];
    // Threads of one multi-threaded process share the plan seed: every
    // shard must rebuild the identical SyncPlan (trace/threads.hh), so
    // process profiles are exempt from repeat decorrelation — the
    // per-thread filler RNGs already decorrelate the shards' private
    // streams.
    if (p.procThreads > 0)
        return p;
    // Repeated profiles decorrelate via a per-shard seed offset —
    // whether the repeat comes from round-robin wraparound or from a
    // duplicate entry in the workload list itself. The first
    // occurrence keeps its profile verbatim, so the N=1 system
    // reproduces the single-core run exactly.
    bool repeat = idx >= workloads.size();
    for (unsigned j = 0; !repeat && j < pos; ++j)
        repeat = workloads[j].name == p.name &&
                 workloads[j].seed == p.seed;
    if (repeat) {
        // Multiplicative mix, not a linear offset: two list entries
        // with nearby seeds must not land on the same value when
        // bumped by nearby shard indices.
        p.seed += std::uint64_t(idx) * 0x9E3779B97F4A7C15ULL;
        p.name += "#s" + std::to_string(idx);
    }
    return p;
}

namespace
{

/** @p cfg itself, or fatal() with the first rule it breaks. */
const MultiCoreConfig &
validated(const MultiCoreConfig &cfg)
{
    const std::string err = validateConfig(cfg);
    fatal_if(!err.empty(), err);
    return cfg;
}

DirectoryParams
directoryParams(const MultiCoreConfig &cfg)
{
    DirectoryParams p;
    p.clusters = cfg.topology.clusters;
    p.remoteLatency = cfg.topology.remoteLatency;
    p.slice = l2Params();
    p.memLatency = dramLatency;
    return p;
}

} // namespace

MultiCoreSystem::MultiCoreSystem(const MultiCoreConfig &cfg)
    : cfg_(validated(cfg)), dir_(directoryParams(cfg_))
{
    if (!cfg_.traceIn.empty()) {
        reader_ = std::make_unique<TraceReader>(cfg_.traceIn);
        fatal_if(reader_->numStreams() != cfg_.numShards,
                 "trace '", cfg_.traceIn, "' holds ",
                 reader_->numStreams(), " streams but this system has ",
                 cfg_.numShards, " shards");
    }
    if (!cfg_.traceOut.empty())
        writer_ = std::make_unique<TraceWriter>(cfg_.traceOut);

    const unsigned procThreads = cfg_.workloads.front().procThreads;
    if (procThreads > 0)
        procShared_ = std::make_unique<ProcessShared>(procThreads);

    for (unsigned i = 0; i < cfg_.numShards; ++i) {
        BenchProfile prof = shardWorkload(cfg_.workloads, i);
        if (procThreads > 0) {
            prof.procShardId = i;
            prof.procShards = cfg_.numShards;
        }
        workloadNames_.push_back(prof.name);

        monitors_.push_back(cfg_.monitor.empty()
                                ? nullptr
                                : makeMonitor(cfg_.monitor));
        if (procShared_ && monitors_.back())
            monitors_.back()->bindProcess(procShared_.get(), i,
                                          cfg_.numShards);

        SystemConfig scfg = cfg_.shard;
        scfg.shardId = std::uint8_t(i);
        scfg.engine = cfg_.engine;
        scfg.traceIn = reader_.get();
        scfg.traceOut = writer_.get();
        unsigned cluster = i / (cfg_.numShards / cfg_.topology.clusters);
        shardClusters_.push_back(cluster);
        // The shard's nominal L2 is its own cluster's slice; all
        // L2-bound traffic actually routes through the shard's
        // DirectoryPort (installed by its ShardRunner) so the home
        // hash and remote penalty apply from the first access.
        shards_.push_back(std::make_unique<MonitoringSystem>(
            scfg, prof, monitors_.back().get(), &dir_.slice(cluster)));
    }

    std::vector<MonitoringSystem *> raw;
    for (auto &s : shards_)
        raw.push_back(s.get());
    sched_ = std::make_unique<ShardScheduler>(cfg_.scheduler,
                                              std::move(raw), dir_,
                                              shardClusters_);
    // Route every shard through its directory port from the start
    // (construction leaves the L1s pointed straight at the cluster
    // slice; the port adds home hashing + the remote penalty).
    for (unsigned i = 0; i < cfg_.numShards; ++i)
        sched_->runner(i).detach();
}

MultiCoreSystem::~MultiCoreSystem() = default;

StatVector
resultStats(MultiCoreSystem &sys, const MultiCoreResult &r)
{
    StatVector fp;
    fp.add("cycles", r.cycles);
    fp.add("instructions", r.totalInstructions);
    fp.add("events", r.totalEvents);
    appendFields(fp, "fade", r.fade);
    fp.add("eq_occupancy", r.eqOccupancy);
    for (const ShardResult &s : r.shards) {
        const std::string shard = "shard" + std::to_string(s.shard);
        appendFields(fp, shard + ".run", s.run);
        appendFields(fp, shard + ".fade", s.fade);
        fp.add(shard + ".eq_occupancy", s.eqOccupancy);
        fp.add(shard + ".bug_reports", s.bugReports);
    }
    for (unsigned i = 0; i < sys.numShards(); ++i)
        fp.add("shard" + std::to_string(i) + ".reports",
               sys.monitor(i) ? sys.monitor(i)->reports().size() : 0);
    // Per-slice LLC counters; with one cluster this is exactly the
    // {hits, misses} pair the flat fingerprint always ended with, so
    // flat fingerprints stay comparable across the topology refactor.
    for (unsigned c = 0; c < sys.numClusters(); ++c) {
        const std::string llc = "llc" + std::to_string(c);
        fp.add(llc + ".hits", sys.directory().slice(c).hits());
        fp.add(llc + ".misses", sys.directory().slice(c).misses());
    }
    // Clustered topologies additionally pin the routing decisions.
    if (sys.numClusters() > 1) {
        for (const ShardResult &s : r.shards) {
            const std::string shard = "shard" + std::to_string(s.shard);
            fp.add(shard + ".l2_local", s.l2Local);
            fp.add(shard + ".l2_remote", s.l2Remote);
        }
    }
    return fp;
}

std::vector<std::uint64_t>
resultFingerprint(MultiCoreSystem &sys, const MultiCoreResult &r)
{
    return resultStats(sys, r).values;
}

StatVector
MultiCoreSystem::functionalFingerprint()
{
    for (auto &s : shards_)
        s->drain();
    StatVector fp;
    for (std::size_t i = 0; i < shards_.size(); ++i)
        fp.append("shard" + std::to_string(i),
                  shards_[i]->functionalFingerprint());
    return fp;
}

void
MultiCoreSystem::beginWarmup(std::uint64_t instructions)
{
    panic_if(phase_ != Phase::Idle, "beginWarmup() with a phase active");
    capturedWarmup_ += instructions;
    sched_->beginRun(instructions, "warmup");
    phase_ = Phase::Warmup;
}

bool
MultiCoreSystem::advanceRun(std::uint64_t maxEpochs)
{
    panic_if(phase_ == Phase::Idle, "advanceRun() with no phase armed");
    return sched_->stepEpochs(maxEpochs);
}

void
MultiCoreSystem::finishWarmup()
{
    panic_if(phase_ != Phase::Warmup || sched_->runActive(),
             "finishWarmup() before the warmup target was reached");
    for (auto &s : shards_)
        s->drain();
    for (auto &s : shards_)
        s->resetStats();
    dir_.resetStats();
    phase_ = Phase::Idle;
}

std::uint64_t
MultiCoreSystem::retiredTotal() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->retired();
    return n;
}

std::uint64_t
MultiCoreSystem::producedTotal() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->produced();
    return n;
}

void
MultiCoreSystem::warmup(std::uint64_t instructions)
{
    beginWarmup(instructions);
    while (!advanceRun(~std::uint64_t(0))) {
    }
    finishWarmup();
}

void
MultiCoreSystem::beginMeasure(std::uint64_t instructions)
{
    panic_if(phase_ != Phase::Idle, "beginMeasure() with a phase active");
    capturedRun_ += instructions;
    reportsBefore_.assign(shards_.size(), 0);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        shards_[i]->beginSlice();
        sched_->runner(unsigned(i)).resetRouteStats();
        if (monitors_[i])
            reportsBefore_[i] = monitors_[i]->reports().size();
    }
    dir_.resetStats();
    sched_->beginRun(instructions, "run");
    phase_ = Phase::Measure;
}

MultiCoreResult
MultiCoreSystem::finishMeasure()
{
    panic_if(phase_ != Phase::Measure || sched_->runActive(),
             "finishMeasure() before the measure target was reached");
    MultiCoreResult agg;
    double ipcSum = 0.0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardResult sr;
        sr.shard = unsigned(i);
        sr.workload = workloadNames_[i];
        sr.run = shards_[i]->endSlice();
        sr.fade = shards_[i]->fadeStats();
        sr.filteringRatio = sr.fade.filteringRatio();
        sr.eqOccupancy = shards_[i]->eventQueue().occupancy();
        if (monitors_[i])
            sr.bugReports =
                monitors_[i]->reports().size() - reportsBefore_[i];
        sr.cluster = shardClusters_[i];
        const DirectoryPortStats &route =
            sched_->runner(unsigned(i)).routeStats();
        sr.l2Local = route.localAccesses;
        sr.l2Remote = route.remoteAccesses;

        agg.cycles = std::max(agg.cycles, sr.run.cycles);
        agg.totalInstructions += sr.run.appInstructions;
        agg.totalEvents += sr.run.monitoredEvents;
        ipcSum += sr.run.appIpc;
        agg.fade.merge(sr.fade);
        agg.eqOccupancy.merge(sr.eqOccupancy);
        agg.l2LocalAccesses += sr.l2Local;
        agg.l2RemoteAccesses += sr.l2Remote;
        agg.shards.push_back(std::move(sr));
    }
    agg.aggregateIpc =
        agg.cycles ? double(agg.totalInstructions) / double(agg.cycles)
                   : 0.0;
    agg.meanShardIpc =
        shards_.empty() ? 0.0 : ipcSum / double(shards_.size());
    agg.filteringRatio = agg.fade.filteringRatio();
    phase_ = Phase::Idle;
    return agg;
}

MultiCoreResult
MultiCoreSystem::run(std::uint64_t instructions)
{
    beginMeasure(instructions);
    while (!advanceRun(~std::uint64_t(0))) {
    }
    return finishMeasure();
}

void
MultiCoreSystem::finishTrace(bool hasResult, std::uint64_t resultHash)
{
    panic_if(!writer_, "closeTrace() without an active capture");
    TraceManifest m;
    m.present = true;
    m.monitor = cfg_.monitor;
    m.warmupInstructions = capturedWarmup_;
    m.measureInstructions = capturedRun_;
    m.numShards = cfg_.numShards;
    m.clusters = cfg_.topology.clusters;
    m.shardsPerCluster = cfg_.numShards / cfg_.topology.clusters;
    m.fadesPerShard = cfg_.shard.fadesPerShard;
    m.remoteLatency = cfg_.topology.remoteLatency;
    m.sliceTicks = cfg_.scheduler.sliceTicks;
    m.eqCapacity = cfg_.shard.eqCapacity;
    m.ueqCapacity = cfg_.shard.ueqCapacity;
    m.coreName = cfg_.shard.core.name;
    m.coreWidth = cfg_.shard.core.width;
    m.robSize = cfg_.shard.core.robSize;
    m.inOrder = cfg_.shard.core.inOrder;
    m.mispredictPenalty = cfg_.shard.core.mispredictPenalty;
    m.accelerated = cfg_.shard.accelerated;
    m.twoCore = cfg_.shard.twoCore;
    m.perfectConsumer = cfg_.shard.perfectConsumer;
    m.hasFingerprint = hasResult;
    m.fingerprintHash = resultHash;
    writer_->setManifest(m);
    writer_->close();
}

void
MultiCoreSystem::closeTrace()
{
    finishTrace(false, 0);
}

void
MultiCoreSystem::closeTrace(std::uint64_t resultHash)
{
    finishTrace(true, resultHash);
}

MultiCoreConfig
replayConfig(const std::string &path)
{
    return replayConfig(TraceReader(path));
}

MultiCoreConfig
replayConfig(const TraceReader &r)
{
    const std::string &path = r.path();
    const TraceManifest &m = r.manifest();
    if (!m.present)
        throw TraceError("'" + path + "' carries no replay manifest "
                         "(capture was not finished with closeTrace)");

    if (m.numShards != r.numStreams() ||
        m.numShards != m.clusters * m.shardsPerCluster)
        throw TraceError(log_detail::str(
            "'", path, "' manifest describes ", m.numShards, " shards (",
            m.clusters, " clusters x ", m.shardsPerCluster, ") but holds ",
            r.numStreams(), " streams"));

    MultiCoreConfig cfg;
    cfg.traceIn = path;
    cfg.monitor = m.monitor;
    cfg.numShards = unsigned(m.numShards);
    cfg.topology.clusters = unsigned(m.clusters);
    cfg.shard.fadesPerShard = unsigned(m.fadesPerShard);
    cfg.topology.remoteLatency = unsigned(m.remoteLatency);
    cfg.scheduler.sliceTicks = m.sliceTicks;
    cfg.shard.eqCapacity = std::size_t(m.eqCapacity);
    cfg.shard.ueqCapacity = std::size_t(m.ueqCapacity);
    cfg.shard.core.name = m.coreName;
    cfg.shard.core.width = unsigned(m.coreWidth);
    cfg.shard.core.robSize = unsigned(m.robSize);
    cfg.shard.core.inOrder = m.inOrder;
    cfg.shard.core.mispredictPenalty = unsigned(m.mispredictPenalty);
    cfg.shard.accelerated = m.accelerated;
    cfg.shard.twoCore = m.twoCore;
    cfg.shard.perfectConsumer = m.perfectConsumer;
    // One workload per stream, exactly as captured. Repeated profiles
    // were renamed/reseeded at capture time (shardWorkload), so the
    // reconstructed list round-trips through shardWorkload verbatim.
    for (unsigned s = 0; s < r.numStreams(); ++s) {
        const TraceStreamMeta &sm = r.stream(s);
        BenchProfile p;
        p.name = sm.profile;
        p.seed = sm.seed;
        p.numThreads = sm.numThreads;
        p.procThreads = sm.procThreads;
        cfg.workloads.push_back(std::move(p));
    }
    return cfg;
}

} // namespace fade
