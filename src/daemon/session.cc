#include "daemon/session.hh"

#include <cstdio>

#include "trace/profile.hh"

namespace fade::daemon
{

namespace
{

/** Decode the wire engine value; 1 named the retired batched engine. */
Engine
wireEngine(std::uint8_t v)
{
    switch (v) {
      case 0:
        return Engine::PerCycle;
      case 2:
        return Engine::RunGrain;
      case 1:
        throw SessionReject(Reason::BadConfig,
                            "engine 1 (batched) was retired; use 0 "
                            "(percycle) or 2 (rungrain)");
    }
    throw SessionReject(Reason::BadConfig, "unknown engine value");
}

void
checkKnobs(const WireSessionConfig &wc)
{
    if (wc.policy > 1)
        throw SessionReject(Reason::BadConfig,
                            "unknown scheduler policy value");
    wireEngine(wc.engine);
    if (wc.sliceTicks != 0 &&
        (wc.sliceTicks < 16 || wc.sliceTicks > (1u << 20)))
        throw SessionReject(Reason::BadConfig,
                            "sliceTicks out of range (16..1M)");
}

void
checkBudget(std::uint64_t warmup, std::uint64_t measure)
{
    if (measure == 0)
        throw SessionReject(Reason::BadConfig,
                            "measure instructions must be >= 1");
    if (warmup > maxSessionInstructions ||
        measure > maxSessionInstructions ||
        warmup + measure > maxSessionInstructions)
        throw SessionReject(
            Reason::BadConfig,
            "instruction budget exceeds per-session cap of " +
                std::to_string(maxSessionInstructions));
}

void
applyOverrides(MultiCoreConfig &cfg, const WireSessionConfig &wc)
{
    cfg.scheduler.policy = wc.policy == 1
                               ? SchedulerPolicy::ParallelBatched
                               : SchedulerPolicy::Lockstep;
    if (wc.sliceTicks != 0)
        cfg.scheduler.sliceTicks = wc.sliceTicks;
    cfg.engine = wireEngine(wc.engine);
}

SessionPlan
livePlan(const WireSessionConfig &wc)
{
    if (wc.profiles.size() > maxSessionShards)
        throw SessionReject(Reason::BadConfig, "too many profiles");
    if (wc.shards > maxSessionShards)
        throw SessionReject(Reason::BadConfig,
                            "shards must be at most " +
                                std::to_string(maxSessionShards));
    checkKnobs(wc);
    checkBudget(wc.warmup, wc.measure);

    SessionPlan plan;
    plan.cfg.monitor = wc.monitor;
    for (const std::string &name : wc.profiles) {
        std::optional<BenchProfile> p = lookupProfile(wc.monitor, name);
        if (!p)
            throw SessionReject(Reason::BadConfig,
                                "unknown benchmark profile: " + name);
        p->seed += wc.seedOffset;
        plan.cfg.workloads.push_back(*p);
    }
    plan.cfg.numShards = wc.shards;
    plan.cfg.topology.clusters = wc.clusters;
    plan.cfg.shard.fadesPerShard = wc.fadesPerShard;
    plan.cfg.topology.remoteLatency = wc.remoteLatency;
    applyOverrides(plan.cfg, wc);
    if (std::string err = validateConfig(plan.cfg); !err.empty())
        throw SessionReject(Reason::BadConfig, err);
    // The system runs the cross-shard monitors on any workload, but
    // they only observe sharing inside one multi-threaded process.
    if ((wc.monitor == "RaceCheck" || wc.monitor == "SharedTaint") &&
        plan.cfg.workloads.front().procThreads == 0)
        throw SessionReject(Reason::BadConfig,
                            wc.monitor + " needs a -mt process workload");
    plan.warmup = wc.warmup;
    plan.measure = wc.measure;
    return plan;
}

SessionPlan
uploadPlan(const WireSessionConfig &wc, const std::string &tracePath)
{
    if (!wc.profiles.empty())
        throw SessionReject(Reason::BadConfig,
                            "an upload session takes its workloads "
                            "from the trace, not the config");
    if (wc.warmup != 0 || wc.measure != 0 || wc.seedOffset != 0)
        throw SessionReject(Reason::BadConfig,
                            "an upload session takes its instruction "
                            "budget and seeds from the trace");
    if (tracePath.empty())
        throw SessionReject(Reason::BadTrace, "no trace was uploaded");
    checkKnobs(wc);

    SessionPlan plan;
    TraceManifest m;
    try {
        TraceReader reader(tracePath);
        plan.cfg = replayConfig(reader);
        m = reader.manifest();
    } catch (const TraceError &e) {
        throw SessionReject(Reason::BadTrace, e.what());
    }
    checkBudget(m.warmupInstructions, m.measureInstructions);
    if (m.numShards > maxSessionShards)
        throw SessionReject(Reason::BadTrace,
                            "uploaded trace exceeds the session "
                            "shard cap");
    applyOverrides(plan.cfg, wc);
    if (std::string err = validateConfig(plan.cfg); !err.empty())
        throw SessionReject(Reason::BadTrace, err);
    plan.warmup = m.warmupInstructions;
    plan.measure = m.measureInstructions;
    return plan;
}

std::uint64_t
sumBugReports(const MultiCoreResult &r)
{
    std::uint64_t n = 0;
    for (const ShardResult &s : r.shards)
        n += s.bugReports;
    return n;
}

/** Fingerprint a finished run into a Result payload; ordering (result
 *  fingerprint before the monitor-finishing functional fingerprint)
 *  matches the harnesses, so the vectors compare bit for bit. */
ResultInfo
fillResult(MultiCoreSystem &sys, const MultiCoreResult &res)
{
    ResultInfo r;
    r.resultFp = resultFingerprint(sys, res);
    r.hash = fingerprintHash(r.resultFp);
    r.functionalFp = sys.functionalFingerprint().values;
    r.instructions = res.totalInstructions;
    r.events = res.totalEvents;
    r.cycles = res.cycles;
    r.bugReports = sumBugReports(res);
    return r;
}

} // namespace

SessionPlan
sessionPlan(const WireSessionConfig &wc, const std::string &tracePath)
{
    return wc.upload ? uploadPlan(wc, tracePath) : livePlan(wc);
}

ResultInfo
standaloneRun(const WireSessionConfig &wc, const std::string &tracePath)
{
    SessionPlan plan = sessionPlan(wc, tracePath);
    MultiCoreSystem sys(plan.cfg);
    sys.warmup(plan.warmup);
    MultiCoreResult res = sys.run(plan.measure);
    return fillResult(sys, res);
}

// ------------------------------------------------------------- OutQueue

bool
OutQueue::tryPush(std::vector<std::uint8_t> frame)
{
    std::lock_guard<std::mutex> lk(m_);
    if (closed_ || finished_)
        return true;
    if (q_.size() >= cap_)
        return false;
    q_.push_back(std::move(frame));
    cv_.notify_one();
    return true;
}

void
OutQueue::forcePush(std::vector<std::uint8_t> frame)
{
    std::lock_guard<std::mutex> lk(m_);
    if (closed_ || finished_)
        return;
    q_.push_back(std::move(frame));
    cv_.notify_one();
}

void
OutQueue::finish()
{
    std::lock_guard<std::mutex> lk(m_);
    finished_ = true;
    cv_.notify_all();
}

void
OutQueue::closeSink()
{
    std::lock_guard<std::mutex> lk(m_);
    closed_ = true;
    q_.clear();
    cv_.notify_all();
}

bool
OutQueue::pop(std::vector<std::uint8_t> &frame)
{
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return !q_.empty() || finished_ || closed_; });
    if (closed_ || q_.empty())
        return false;
    frame = std::move(q_.front());
    q_.pop_front();
    return true;
}

bool
OutQueue::full() const
{
    std::lock_guard<std::mutex> lk(m_);
    return !closed_ && !finished_ && q_.size() >= cap_;
}

// -------------------------------------------------------------- Session

Session::Session(std::uint64_t id, const WireSessionConfig &wc,
                 const std::string &tracePath,
                 std::shared_ptr<OutQueue> out)
    : id_(id), plan_(sessionPlan(wc, tracePath)),
      tracePath_(tracePath), out_(std::move(out))
{
}

Session::~Session()
{
    if (!tracePath_.empty())
        std::remove(tracePath_.c_str());
}

void
Session::abort()
{
    aborted_.store(true);
    out_->closeSink();
}

void
Session::emitProgress()
{
    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Progress));
    ProgressInfo p;
    p.phase = phase_ == Phase::Warm ? 0 : 1;
    p.instructions = sys_->retiredTotal();
    p.events = sys_->producedTotal();
    encodeProgress(e, p);
    out_->tryPush(sealFrame(e.out));
}

void
Session::finishRun()
{
    MultiCoreResult res = sys_->finishMeasure();
    ResultInfo r = fillResult(*sys_, res);
    r.quanta = quanta_;
    r.parks = parks_.load();
    if (seqCounter_)
        r.completionSeq = seqCounter_->fetch_add(1) + 1;

    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Result));
    encodeResult(e, r);
    out_->forcePush(sealFrame(e.out));
    out_->forcePush(sealFrame(FrameType::Bye));
    sys_.reset();
    phase_ = Phase::Done;
    // Terminal state before finish(): anyone who drains the queue to
    // its end must already observe complete().
    complete_.store(true);
    out_->finish();
}

void
Session::failRun(Reason r, const std::string &msg)
{
    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Error));
    encodeError(e, ErrorInfo{r, msg});
    out_->forcePush(sealFrame(e.out));
    sys_.reset();
    phase_ = Phase::Done;
    complete_.store(true);
    out_->finish();
}

bool
Session::step(std::uint64_t quantumEpochs)
{
    if (phase_ == Phase::Done)
        return true;
    if (aborted_.load()) {
        // Tear the simulator down on the worker (it may be large);
        // the sink is closed, so no frames are owed.
        sys_.reset();
        phase_ = Phase::Done;
        complete_.store(true);
        return true;
    }

    ++quanta_;
    try {
        switch (phase_) {
          case Phase::Build:
            sys_ = std::make_unique<MultiCoreSystem>(plan_.cfg);
            sys_->beginWarmup(plan_.warmup);
            phase_ = Phase::Warm;
            break;
          case Phase::Warm:
            if (sys_->advanceRun(quantumEpochs)) {
                sys_->finishWarmup();
                sys_->beginMeasure(plan_.measure);
                phase_ = Phase::Measure;
            }
            emitProgress();
            break;
          case Phase::Measure:
            if (sys_->advanceRun(quantumEpochs))
                finishRun();
            else
                emitProgress();
            break;
          case Phase::Done:
            break;
        }
    } catch (const TraceError &e) {
        // An uploaded trace can pass header validation and still turn
        // out corrupt when a block is decoded mid-run.
        failRun(Reason::BadTrace, e.what());
    } catch (const std::exception &e) {
        failRun(Reason::Internal, e.what());
    }
    return phase_ == Phase::Done;
}

} // namespace fade::daemon
