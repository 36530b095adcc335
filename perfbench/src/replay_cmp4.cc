/**
 * @file
 * replay_cmp4: four flat shards replay traces captured from the seed
 * (MemLeak on the hmmer multiprogram mix, run-grain engine), driven by
 * each manifest's warmup and measure counts. Replays rotate over several
 * captures, so that the figures average over inputs rather than follow
 * one capture's shard balance. Every replay must reproduce its capture
 * manifest's result hash bit for bit.
 *
 * The timed replays run under the Lockstep policy on one host thread.
 * Under ParallelBatched with four host threads on a shared 4-CPU host,
 * one slowed CPU stalls every epoch's barrier: interleaved runs moved
 * by up to 2x while one-thread runs stayed within 13%. The parallel
 * policy is timed in the traced mode instead.
 *
 * The traced mode adds isolated probes of the trace layer (open,
 * decode), monitor dispatch and event extraction over the replayed
 * streams, Lockstep passes that step the shard runners from outside
 * (runSlice per live shard, then commitSlice, then beginEpoch, exactly
 * ShardScheduler::runEpoch's sequence) to time slices and the barrier
 * merge, and ParallelBatched passes with four host threads timed one
 * epoch at a time.
 */

#include <algorithm>
#include <cstdio>

#include "common.hh"
#include "monitor/factory.hh"
#include "probes.hh"
#include "system/multicore.hh"
#include "system/rungrain.hh"

using namespace fade;

namespace perfbench
{

namespace
{

constexpr unsigned cmpShards = 4;
/** Host threads of the traced mode's ParallelBatched passes. */
constexpr unsigned parallelHostThreads = 4;
/** Instructions per shard of the captured run; sized so that 200
 *  replays, enough for a p95 with ten beyond it, take about 15 s. */
constexpr std::uint64_t captureWarmup = 8000;
constexpr std::uint64_t captureMeasure = 32000;
constexpr std::uint64_t minReplays = 200;
constexpr unsigned numCaptures = 8;

unsigned
captures(const RunArgs &a)
{
    return a.smoke ? 2 : numCaptures;
}

std::string
tracePath(const RunArgs &a, unsigned k)
{
    return a.dir + "/cmp4_" + std::to_string(k) + ".ftrace";
}

MultiCoreConfig
replayCfg(const std::string &path, SchedulerPolicy policy)
{
    MultiCoreConfig cfg = replayConfig(path);
    cfg.engine = Engine::RunGrain;
    cfg.scheduler.policy = policy;
    cfg.scheduler.hostThreads = parallelHostThreads;
    return cfg;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** Check a finished replay against the capture; @return ok. */
bool
checkReplay(MultiCoreSystem &sys, const MultiCoreResult &r,
            std::uint64_t expect, const std::string &what, Outcome &o)
{
    std::uint64_t h = fingerprintHash(resultFingerprint(sys, r));
    bool ok = o.check(h == expect, what + ": result hash " + hex(h) +
                                       " != capture manifest " +
                                       hex(expect));
    for (const ShardResult &s : r.shards)
        ok &= o.check(s.run.monitoredEvents > 0,
                      what + ": shard " + std::to_string(s.shard) +
                          " measured 0 events");
    return ok;
}

/** Per-epoch timings of one Lockstep pass. */
struct LockstepPass
{
    double wall = 0.0;
    std::vector<double> epochMax, epochMean, epochMerge;
    double slices = 0.0, commit = 0.0, rebase = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t stepped = 0, modeled = 0;
    std::uint64_t llcHits = 0, llcMisses = 0;
};

LockstepPass
lockstepPass(const std::string &path, std::uint64_t passId,
             std::uint64_t expect, Outcome &o)
{
    LockstepPass p;
    MultiCoreSystem sys(replayCfg(path, SchedulerPolicy::Lockstep));
    const TraceManifest &m = sys.traceReader()->manifest();
    sys.warmup(m.warmupInstructions);

    auto cycles = [&](std::uint64_t &stepped) {
        std::uint64_t all = 0;
        stepped = 0;
        for (unsigned i = 0; i < sys.numShards(); ++i) {
            const RunGrainDriverStats &s =
                sys.shard(i).runGrainDriver()->stats();
            stepped += s.cyclesStepped;
            all += s.cyclesStepped + s.cyclesFastForwarded +
                   s.cyclesClosedFormed;
        }
        return all;
    };
    std::uint64_t stepped0 = 0;
    const std::uint64_t modeled0 = cycles(stepped0);

    sys.beginMeasure(m.measureInstructions);
    ShardScheduler &sch = sys.scheduler();
    const std::uint64_t ticks = sch.config().sliceTicks;
    const unsigned n = sys.numShards();
    const auto t0 = Clock::now();
    const std::int64_t root = o.spans.open("lockstep", passId, -1, t0);
    for (std::uint64_t epoch = 0;; ++epoch) {
        unsigned live = 0;
        for (unsigned i = 0; i < n; ++i)
            live += !sch.runner(i).done();
        if (!live)
            break;
        const auto e0 = Clock::now();
        const std::int64_t ep = o.spans.open("epoch", epoch, root, e0);
        double mx = 0.0, sum = 0.0;
        for (unsigned i = 0; i < n; ++i) {
            ShardRunner &r = sch.runner(i);
            if (r.done())
                continue;
            auto s0 = Clock::now();
            r.runSlice(ticks);
            auto s1 = Clock::now();
            o.spans.add("slice", epoch, ep, s0, s1);
            mx = std::max(mx, seconds(s0, s1));
            sum += seconds(s0, s1);
        }
        auto c0 = Clock::now();
        for (unsigned i = 0; i < n; ++i)
            sch.runner(i).commitSlice();
        auto c1 = Clock::now();
        for (unsigned i = 0; i < n; ++i)
            sch.runner(i).beginEpoch();
        auto c2 = Clock::now();
        o.spans.add("commit", epoch, ep, c0, c1);
        o.spans.add("rebase", epoch, ep, c1, c2);
        o.spans.close(ep, c2);
        p.epochMax.push_back(mx);
        p.epochMean.push_back(sum / live);
        p.epochMerge.push_back(seconds(c0, c2));
        p.slices += sum;
        p.commit += seconds(c0, c1);
        p.rebase += seconds(c1, c2);
    }
    const auto t1 = Clock::now();
    o.spans.close(root, t1);
    p.wall = seconds(t0, t1);

    // Every runner is done, so this epoch step only closes the run.
    o.check(sys.advanceRun(1), "lockstep pass: scheduler run not closed");
    MultiCoreResult r = sys.finishMeasure();
    p.modeled = cycles(p.stepped) - modeled0;
    p.stepped -= stepped0;
    p.instructions = r.totalInstructions;
    for (unsigned c = 0; c < sys.numClusters(); ++c) {
        p.llcHits += sys.directory().slice(c).hits();
        p.llcMisses += sys.directory().slice(c).misses();
    }
    checkReplay(sys, r, expect, "lockstep pass", o);
    return p;
}

/** Parallel pass timed one epoch at a time; @return epoch seconds. */
std::vector<double>
parallelPass(const std::string &path, std::uint64_t passId,
             std::uint64_t expect, Outcome &o)
{
    std::vector<double> epochs;
    MultiCoreSystem sys(replayCfg(path, SchedulerPolicy::ParallelBatched));
    const TraceManifest &m = sys.traceReader()->manifest();
    sys.warmup(m.warmupInstructions);
    sys.beginMeasure(m.measureInstructions);
    const std::int64_t root =
        o.spans.open("parallel", passId, -1, Clock::now());
    for (bool done = false; !done;) {
        auto e0 = Clock::now();
        done = sys.advanceRun(1);
        auto e1 = Clock::now();
        o.spans.add("par_epoch", epochs.size(), root, e0, e1);
        epochs.push_back(seconds(e0, e1));
    }
    o.spans.close(root, Clock::now());
    MultiCoreResult r = sys.finishMeasure();
    checkReplay(sys, r, expect, "parallel pass", o);
    return epochs;
}

void
probeLayers(const RunArgs &a, Outcome &o,
            const std::vector<std::uint64_t> &expect)
{
    const unsigned n = captures(a);
    const int reps = a.smoke ? 2 : 5;

    std::vector<double> openMs;
    for (int k = 0; k < reps; ++k)
        for (unsigned c = 0; c < n; ++c) {
            auto t0 = Clock::now();
            TraceReader r(tracePath(a, c));
            openMs.push_back(seconds(t0, Clock::now()) * 1e3);
        }
    o.samples("trace.open_ms", "ms", openMs);

    std::vector<std::unique_ptr<TraceReader>> readers;
    std::uint64_t bytes = 0;
    for (unsigned c = 0; c < n; ++c) {
        readers.push_back(std::make_unique<TraceReader>(tracePath(a, c)));
        bytes += readers.back()->fileBytes();
    }
    std::uint64_t records = 0;
    std::vector<double> decode;
    for (int k = 0; k < reps; ++k) {
        double sec = 0.0;
        records = 0;
        for (const auto &reader : readers)
            for (unsigned s = 0; s < reader->numStreams(); ++s) {
                std::uint64_t got = 0;
                sec += decodeSeconds(*reader, s, got);
                records += got;
            }
        decode.push_back(sec * 1e9 / double(records));
    }
    o.samples("trace.decode_ns_per_instr", "ns/instr", decode);
    o.ratio("trace.bytes_per_instr", "B/instr", double(bytes),
            double(records));

    std::vector<std::vector<Instruction>> streams;
    std::vector<std::unique_ptr<Monitor>> monitors;
    std::uint64_t windowN = 0;
    for (const auto &reader : readers)
        for (unsigned s = 0; s < reader->numStreams(); ++s) {
            streams.push_back(decodeWindow(*reader, s, 1u << 20));
            monitors.push_back(makeMonitor(reader->manifest().monitor));
            windowN += streams.back().size();
        }
    std::vector<double> dispatch, extract;
    std::uint64_t events = 0;
    for (int k = 0; k < reps; ++k) {
        double dSec = 0.0, eSec = 0.0;
        std::vector<std::uint8_t> v;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            dSec += dispatchSeconds(*monitors[s], streams[s], v);
            std::uint64_t ev = 0;
            eSec += extractSeconds(*monitors[s], streams[s], v, ev);
            events += ev;
        }
        dispatch.push_back(dSec * 1e9 / double(windowN));
        extract.push_back(eSec * 1e9 / double(windowN));
    }
    o.check(events > 0, "replay_cmp4 probes: no events extracted");
    o.samples("monitor.dispatch_ns_per_instr", "ns/instr", dispatch);
    o.samples("system.extract_ns_per_instr", "ns/instr", extract);

    // The scheduler passes, two rounds over the captures so that the
    // epoch p95 has ten samples beyond it: Lockstep stepped from
    // outside, then the parallel policy one epoch at a time, pass
    // against pass.
    const unsigned rounds = a.smoke ? 1 : 2;
    std::vector<LockstepPass> locks;
    std::vector<std::vector<double>> pars;
    for (unsigned k = 0; k < rounds * n; ++k) {
        const unsigned c = k % n;
        locks.push_back(lockstepPass(tracePath(a, c), k, expect[c], o));
        pars.push_back(parallelPass(tracePath(a, c), k, expect[c], o));
    }
    double maxSum = 0, meanSum = 0, mergeSum = 0, lockWall = 0, parWall = 0;
    std::uint64_t stepped = 0, modeled = 0, hits = 0, misses = 0;
    std::vector<double> epochsN, sliceS, syncS, commitS, rebaseS, epochUs,
        sliceNs;
    for (std::size_t k = 0; k < locks.size(); ++k) {
        const LockstepPass &l = locks[k];
        const std::vector<double> &par = pars[k];
        o.check(par.size() == l.epochMax.size(),
                "parallel pass ran " + std::to_string(par.size()) +
                    " epochs, lockstep " +
                    std::to_string(l.epochMax.size()));
        double sync = 0.0, pw = 0.0;
        for (std::size_t e = 0; e < par.size(); ++e) {
            pw += par[e];
            epochUs.push_back(par[e] * 1e6);
            if (e < l.epochMax.size())
                sync += par[e] - l.epochMax[e] - l.epochMerge[e];
        }
        for (std::size_t e = 0; e < l.epochMax.size(); ++e) {
            maxSum += l.epochMax[e];
            meanSum += l.epochMean[e];
            mergeSum += l.epochMerge[e];
        }
        lockWall += l.wall;
        parWall += pw;
        stepped += l.stepped;
        modeled += l.modeled;
        hits += l.llcHits;
        misses += l.llcMisses;
        epochsN.push_back(double(l.epochMax.size()));
        sliceS.push_back(l.slices);
        syncS.push_back(sync);
        commitS.push_back(l.commit);
        rebaseS.push_back(l.rebase);
        sliceNs.push_back(l.slices * 1e9 / double(l.instructions));
    }
    o.infoNum["lockstep_passes"] = double(locks.size());
    o.samples("system.sched_epochs", "epochs", epochsN);
    o.samples("system.sched_slice_s", "s", sliceS);
    o.ratio("system.sched_imbalance", "max/mean", maxSum, meanSum);
    o.ratio("system.sched_ideal_speedup", "x", lockWall,
            maxSum + mergeSum);
    o.ratio("system.sched_speedup", "x", lockWall, parWall);
    o.samples("system.sched_sync_s", "s", syncS);
    o.samples("system.sched_epoch_us", "us", epochUs);
    o.samples("mem.slice_commit_s", "s", commitS);
    o.samples("mem.slice_rebase_s", "s", rebaseS);
    o.ratio("mem.llc_miss_ratio", "fraction", double(misses),
            double(hits + misses));
    o.ratio("system.rungrain_stepped_share", "fraction", double(stepped),
            double(modeled));
    o.samples("system.rungrain_residual_ns_per_instr", "ns/instr",
              {median(sliceNs) - median(decode) - median(dispatch) -
               median(extract)});
}

} // namespace

void
genReplayCmp4(const RunArgs &a)
{
    for (unsigned c = 0; c < captures(a); ++c) {
        MultiCoreConfig cfg;
        cfg.monitor = "MemLeak";
        cfg.numShards = cmpShards;
        cfg.engine = Engine::RunGrain;
        for (BenchProfile p : multiprogramWorkloads("hmmer")) {
            p.seed += a.seed * numCaptures + c;
            cfg.workloads.push_back(p);
        }
        cfg.traceOut = tracePath(a, c);
        MultiCoreSystem sys(cfg);
        sys.warmup(a.smoke ? 1000 : captureWarmup);
        MultiCoreResult r = sys.run(a.smoke ? 4000 : captureMeasure);
        sys.closeTrace(fingerprintHash(resultFingerprint(sys, r)));
    }
}

void
runReplayCmp4(const RunArgs &a, Outcome &o)
{
    const unsigned n = captures(a);
    const std::uint64_t minOps = a.smoke ? 3 : a.probe ? 10 : minReplays;
    std::vector<std::uint64_t> expect(n, 0);
    std::vector<double> constructMs, warmupS;

    auto start = Clock::now();
    for (std::uint64_t id = 0;; ++id) {
        if (id >= minOps &&
            (a.smoke || seconds(start, Clock::now()) >= a.seconds))
            break;
        const unsigned c = unsigned(id % n);
        const std::string what = "replay " + std::to_string(id) +
                                 " (capture " + std::to_string(c) + ")";
        ++o.attempted;
        bool ok = true;
        try {
            auto t0 = Clock::now();
            MultiCoreConfig cfg =
                replayCfg(tracePath(a, c), SchedulerPolicy::Lockstep);
            auto t1 = Clock::now();
            MultiCoreSystem sys(cfg);
            auto t2 = Clock::now();
            const TraceManifest &m = sys.traceReader()->manifest();
            ok &= o.check(m.present && m.hasFingerprint,
                          what + ": capture has no manifest hash");
            expect[c] = m.fingerprintHash;
            sys.warmup(m.warmupInstructions);
            auto t3 = Clock::now();
            MultiCoreResult r = sys.run(m.measureInstructions);
            auto t4 = Clock::now();
            ok &= checkReplay(sys, r, expect[c], what, o);

            const std::int64_t rp = o.spans.open("replay", id, -1, t0);
            o.spans.add("open", id, rp, t0, t1);
            o.spans.add("construct", id, rp, t1, t2);
            o.spans.add("warmup", id, rp, t2, t3);
            o.spans.add("measure", id, rp, t3, t4);
            o.spans.close(rp, t4);

            o.opMs.push_back({seconds(t0, t4) * 1e3, t0, t4});
            o.setupSeconds.push_back({seconds(t0, t3), t0, t3});
            o.eventsPerSecond.push_back(
                {double(r.totalEvents) / seconds(t3, t4), t3, t4});
            o.events += r.totalEvents;
            constructMs.push_back(seconds(t1, t2) * 1e3);
            warmupS.push_back(seconds(t2, t3));
            ++o.ops;
        } catch (const std::exception &e) {
            ok = o.check(false, what + ": " + e.what());
        }
        if (!ok)
            ++o.failed;
        o.host.tick();
    }
    const auto end = Clock::now();
    o.wall = {seconds(start, end), start, end};
    o.peakRssMib = o.host.peakRssMibSansKernel();
    std::string hashes;
    for (std::uint64_t h : expect)
        hashes += (hashes.empty() ? "" : " ") + hex(h);
    o.info["manifest_hash"] = hashes;

    if (!a.trace)
        return;
    o.samples("system.cmp4_construct_ms", "ms", constructMs);
    o.samples("system.cmp4_warmup_s", "s", warmupS);
    probeLayers(a, o, expect);
}

} // namespace perfbench
