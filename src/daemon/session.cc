#include "daemon/session.hh"

#include <cerrno>
#include <cstdio>

#include <sys/socket.h>

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

/** The client hung up, sent bytes, or its socket failed — checked
 *  without blocking. Any of them ends a running session. */
bool
clientInterrupts(int fd)
{
    char b;
    ssize_t n = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
    return n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                      errno != EINTR);
}

void
sendProgress(int fd, bool measuring, const MultiCoreSystem &sys)
{
    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Progress));
    ProgressInfo p;
    p.phase = measuring ? 1 : 0;
    p.instructions = sys.retiredTotal();
    p.events = sys.producedTotal();
    encodeProgress(e, p);
    writeFrame(fd, e.out);
}

std::vector<std::uint8_t>
errorBody(Reason r, const std::string &msg)
{
    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Error));
    encodeError(e, ErrorInfo{r, msg});
    return e.out;
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

// -------------------------------------------------------------- Session

Session::Session(const WireSessionConfig &wc,
                 const std::string &tracePath)
    : plan_(sessionPlan(wc, tracePath)), tracePath_(tracePath)
{
}

Session::~Session()
{
    if (!tracePath_.empty())
        std::remove(tracePath_.c_str());
}

std::vector<std::uint8_t>
Session::run(int fd, const std::atomic<bool> &abort,
             std::atomic<std::uint64_t> &completions) const
{
    auto interrupted = [&] { return abort.load() || clientInterrupts(fd); };
    try {
        // Building the system is the first quantum.
        if (interrupted())
            return {};
        std::uint64_t quanta = 1;
        MultiCoreSystem sys(plan_.cfg);
        sys.beginWarmup(plan_.warmup);
        bool measuring = false;
        for (;;) {
            if (interrupted())
                return {};
            ++quanta;
            if (sys.advanceRun(sessionQuantumEpochs)) {
                if (measuring)
                    break;
                sys.finishWarmup();
                sys.beginMeasure(plan_.measure);
                measuring = true;
            }
            sendProgress(fd, measuring, sys);
        }

        MultiCoreResult res = sys.finishMeasure();
        ResultInfo r = fillResult(sys, res);
        r.quanta = quanta;
        r.completionSeq = completions.fetch_add(1) + 1;
        wire::Enc e;
        e.u8(std::uint8_t(FrameType::Result));
        encodeResult(e, r);
        return e.out;
    } catch (const ProtocolError &) {
        throw;
    } catch (const TraceError &err) {
        // An uploaded trace can pass header validation and still turn
        // out corrupt when a block is decoded mid-run.
        return errorBody(Reason::BadTrace, err.what());
    } catch (const std::exception &err) {
        return errorBody(Reason::Internal, err.what());
    }
}

} // namespace fade::daemon
