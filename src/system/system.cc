#include "system/system.hh"

#include "sim/logging.hh"
#include "system/rungrain.hh"
#include "trace/threads.hh"
#include "trace/tracefile.hh"

namespace fade
{

MonitoringSystem::MonitoringSystem(const SystemConfig &cfg,
                                   const BenchProfile &profile,
                                   Monitor *mon)
    : MonitoringSystem(cfg, profile, mon, nullptr)
{
}

MonitoringSystem::MonitoringSystem(const SystemConfig &cfg,
                                   const BenchProfile &profile,
                                   Monitor *mon, Cache *sharedL2)
    : cfg_(cfg),
      mon_(mon),
      ctx_(mon ? mon->shadowDefault() : 0),
      ownedL2_(sharedL2 ? nullptr
                        : std::make_unique<Cache>(l2Params(), nullptr,
                                                  dramLatency)),
      l2_(sharedL2 ? sharedL2 : ownedL2_.get()),
      appL1_(l1Params("app-l1d"), l2_),
      monL1_(l1Params("mon-l1d"), l2_),
      eq_(cfg.eqCapacity),
      ueq_(cfg.ueqCapacity)
{
    // Shards reuse the same virtual address ranges; salt every timing
    // access so identical addresses from different shards occupy
    // distinct lines in the shared L2 (as distinct physical pages
    // would). The high bits keep shard spaces disjoint; the hashed
    // bits [6,32) spread each shard's hot blocks across cache sets so
    // same-address lines do not all pile into one L2 set. Low 6 bits
    // stay clear to preserve block alignment. Shard 0 is salt-free,
    // keeping the legacy path identical.
    std::uint64_t salt =
        (std::uint64_t(cfg_.shardId) << 40) |
        ((std::uint64_t(cfg_.shardId) * 0x9E3779B97F4A7C15ULL) &
         0xFFFFFFC0ULL);
    // Threads of one multi-threaded process share an address space:
    // identical addresses on different shards ARE the same physical
    // data (the shared heap), so process-mode shards run salt-free.
    if (profile.procThreads > 0)
        salt = 0;
    appL1_.setAddrSalt(salt);
    monL1_.setAddrSalt(salt);

    // The application instruction source: a captured trace stream when
    // replaying, the synthetic generator otherwise, optionally teed to
    // a capture file. The core sees one InstSource either way, and the
    // capture tee forwards every call verbatim, so neither mode
    // perturbs timing or the generator's RNG draw order.
    WorkloadLayout layout;
    if (cfg_.traceIn) {
        fatal_if(cfg_.shardId >= cfg_.traceIn->numStreams(),
                 "trace '", cfg_.traceIn->path(), "' has ",
                 cfg_.traceIn->numStreams(), " streams, no stream for "
                 "shard ", unsigned(cfg_.shardId));
        const TraceStreamMeta &m = cfg_.traceIn->stream(cfg_.shardId);
        fatal_if(m.profile != profile.name || m.seed != profile.seed ||
                     m.numThreads != profile.numThreads ||
                     m.procThreads != profile.procThreads,
                 "trace stream ", unsigned(cfg_.shardId),
                 " was captured from workload '", m.profile, "' (seed ",
                 m.seed, ", ", m.numThreads, " threads, ",
                 m.procThreads, " process threads) but this shard "
                 "runs '", profile.name, "' (seed ", profile.seed, ", ",
                 profile.numThreads, " threads, ", profile.procThreads,
                 " process threads)");
        replay_ = std::make_unique<ReplaySource>(*cfg_.traceIn,
                                                 cfg_.shardId);
        appSrc_ = replay_.get();
        layout = m.layout;
    } else if (profile.procThreads > 0) {
        tgen_ = std::make_unique<ThreadedSource>(profile);
        appSrc_ = tgen_.get();
        layout = tgen_->layout();
    } else {
        gen_ = std::make_unique<TraceGenerator>(profile);
        appSrc_ = gen_.get();
        layout = gen_->layout();
    }
    if (cfg_.traceOut) {
        TraceStreamMeta meta;
        meta.profile = profile.name;
        meta.seed = profile.seed;
        meta.numThreads = profile.numThreads;
        meta.procThreads = profile.procThreads;
        meta.layout = layout;
        unsigned sid = cfg_.traceOut->addStream(meta);
        panic_if(sid != cfg_.shardId,
                 "capture stream ", sid, " registered for shard ",
                 unsigned(cfg_.shardId),
                 " (shards built out of order?)");
        capture_ = std::make_unique<CaptureSource>(*appSrc_,
                                                   *cfg_.traceOut, sid);
        appSrc_ = capture_.get();
    }

    if (mon_) {
        ctx_.regMd.fill(mon_->regMdInit());
        mon_->initShadow(ctx_, layout);
    }

    if (mon_ && cfg_.accelerated && !cfg_.perfectConsumer) {
        fades_ = std::make_unique<FadeGroup>(cfg_.fadesPerShard,
                                             cfg_.fade, ctx_, l2_,
                                             cfg_.shardId);
        for (unsigned u = 0; u < fades_->size(); ++u) {
            Fade &f = fades_->unit(u);
            f.mdCache().setAddrSalt(salt);
            mon_->programFade(f.eventTable(), f.invRf());
            // Non-critical bookkeeping for SUU-handled stack updates.
            f.onStackUpdate = [this](const MonEvent &ev) {
                UnfilteredEvent u;
                u.ev = ev;
                mon_->handleEvent(u, ctx_);
            };
        }
        fades_->bind(&eq_, &ueq_);
    }

    producer_ = std::make_unique<EventProducer>(
        mon_, mon_ ? &eq_ : nullptr, fades_.get(), cfg_.shardId);

    if (mon_ && !cfg_.perfectConsumer) {
        if (cfg_.accelerated) {
            mproc_ = std::make_unique<MonitorProcess>(
                *mon_, ctx_, fades_.get(), &ueq_, nullptr);
        } else {
            mproc_ = std::make_unique<MonitorProcess>(*mon_, ctx_,
                                                      nullptr, nullptr,
                                                      &eq_);
        }
    }

    if (cfg_.twoCore && mproc_) {
        appCore_ = std::make_unique<Core>(cfg_.core, &appL1_);
        appCore_->addThread(appSrc_, producer_.get());
        monCore_ = std::make_unique<Core>(cfg_.core, &monL1_);
        monCore_->addThread(mproc_.get(), mproc_.get());
    } else {
        appCore_ = std::make_unique<Core>(cfg_.core, &appL1_);
        appCore_->addThread(appSrc_, producer_.get());
        if (mproc_)
            appCore_->addThread(mproc_.get(), mproc_.get());
    }

    if (cfg_.engine == Engine::RunGrain)
        rg_ = std::make_unique<RunGrainDriver>(*this);
}

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::PerCycle:
        return "percycle";
      case Engine::RunGrain:
        return "rungrain";
    }
    return "unknown";
}

MonitoringSystem::~MonitoringSystem() = default;

TraceGenerator &
MonitoringSystem::generator()
{
    panic_if(!gen_, "no trace generator (replay-driven system)");
    return *gen_;
}

void
MonitoringSystem::flushCapture()
{
    if (capture_)
        capture_->flush();
}

void
MonitoringSystem::tickAll()
{
    appCore_->tick(now_);
    if (fades_)
        fades_->tick(now_);
    if (monCore_)
        monCore_->tick(now_);
    if (cfg_.perfectConsumer && !eq_.empty()) {
        eq_.pop();
        ++perfectConsumed_;
    }
    ++now_;
}

void
MonitoringSystem::drain()
{
    // Let in-flight events and handlers complete so that measurement
    // boundaries do not leak work across slices. Monitored retirement
    // is paused so the (infinite) application stream stops producing.
    producer_->pause(true);
    Cycle limit = now_ + 2000000;
    auto quiet = [this] {
        if (!eq_.empty() || !ueq_.empty())
            return false;
        if (fades_ && !fades_->quiesced())
            return false;
        if (mproc_ && !mproc_->idle())
            return false;
        return true;
    };
    while (!quiet() && now_ < limit)
        tickAll();
    producer_->pause(false);
    panic_if(!quiet(), "monitoring system failed to drain");
}

void
MonitoringSystem::setL2Port(MemPort *port)
{
    MemPort *p = port ? port : l2_;
    appL1_.setNext(p);
    monL1_.setNext(p);
    if (fades_)
        fades_->setNext(p);
}

void
MonitoringSystem::resetStats()
{
    appCore_->resetStats();
    if (monCore_)
        monCore_->resetStats();
    if (fades_)
        fades_->resetStats();
    if (mproc_)
        mproc_->resetStats();
    producer_->resetStats();
    eq_.resetStats();
    ueq_.resetStats();
    appL1_.resetStats();
    monL1_.resetStats();
    if (ownedL2_)
        ownedL2_->resetStats();
    perfectConsumed_ = 0;
    if (rg_)
        rg_->onResetStats();
}

std::uint64_t
MonitoringSystem::retired() const
{
    return producer_->retired();
}

bool
MonitoringSystem::replayExhausted() const
{
    return replay_ && replay_->remaining() == 0 && appCore_->drained();
}

std::uint64_t
MonitoringSystem::produced() const
{
    return producer_->produced();
}

StatVector
MonitoringSystem::functionalFingerprint()
{
    if (fades_)
        fades_->finalizeBursts();
    StatVector fp;
    appendFields(fp, "run", counters(), true);
    appendFields(fp, "fade", fadeStats(), true);
    if (mon_)
        mon_->finish();
    fp.add("reports", mon_ ? mon_->reports().size() : 0);
    return fp;
}

void
MonitoringSystem::beginSlice()
{
    resetStats();
    sliceStart_ = now_;
}

RunResult
MonitoringSystem::counters() const
{
    RunResult r;
    r.appInstructions = producer_->retired();
    r.cycles = now_ - sliceStart_;
    r.monitoredEvents = producer_->produced();
    r.appStallCycles = appCore_->threadStats(0).sinkStallCycles;
    if (mproc_) {
        const Core &mc = monCore_ ? *monCore_ : *appCore_;
        unsigned monTid = monCore_ ? 0 : 1;
        r.monIdleCycles = mc.threadStats(monTid).idleCycles;
        r.handlerInstructions = mproc_->stats().instructions;
        r.handlersRun = mproc_->stats().handlers;
    }
    return r;
}

RunResult
MonitoringSystem::endSlice()
{
    if (rg_)
        rg_->finalizeSlice();
    RunResult r = counters();
    r.appIpc = double(r.appInstructions) / double(r.cycles);
    r.monitoredIpc = double(r.monitoredEvents) / double(r.cycles);
    if (fades_)
        fades_->finalizeBursts();
    if (mon_)
        mon_->finish();
    return r;
}

std::uint64_t
MonitoringSystem::advance(std::uint64_t maxCycles,
                          std::uint64_t targetRetired)
{
    if (rg_)
        return rg_->runUntil(maxCycles, targetRetired);
    Cycle start = now_;
    Cycle end = now_ + maxCycles;
    while (now_ < end && producer_->retired() < targetRetired)
        tickAll();
    return now_ - start;
}

void
MonitoringSystem::runUntilRetired(std::uint64_t instructions,
                                  const char *what)
{
    std::uint64_t target = producer_->retired() + instructions;
    advance(sliceCycleLimit(instructions), target);
    panic_if(producer_->retired() < target,
             what, " failed to make progress (deadlock?)");
}

void
MonitoringSystem::warmup(std::uint64_t instructions)
{
    runUntilRetired(instructions, "warmup");
    drain();
    resetStats();
}

RunResult
MonitoringSystem::run(std::uint64_t instructions)
{
    beginSlice();
    runUntilRetired(instructions, "run");
    return endSlice();
}

} // namespace fade
