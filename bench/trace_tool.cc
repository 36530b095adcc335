/**
 * @file
 * Trace capture/replay tool (trace/tracefile.hh). Four modes:
 *
 *   trace_tool --capture OUT.ftrace [config flags]
 *       Run the configured system live, tee every shard's instruction
 *       stream to OUT.ftrace, and seal the file with a replay manifest
 *       holding the run's result-fingerprint hash.
 *
 *   trace_tool --replay FILE.ftrace [--policy P] [--engine E]
 *       Rebuild the captured system from the manifest, re-run it from
 *       the trace, and compare the result hash against the capture.
 *       Policy/engine may be overridden — results are invariant.
 *
 *   trace_tool --verify FILE.ftrace...
 *       Replay each file under the default policy/engine and
 *       hard-check its manifest hash; exit 1 on any mismatch. The CI
 *       golden-trace gate (tests/golden/, docs/BENCHMARKS.md).
 *
 *   trace_tool --stats FILE.ftrace   (and --dump [--max N])
 *       Inspect header, manifest, per-stream encoding statistics, or
 *       the decoded records themselves.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "system/multicore.hh"

using namespace fade;
using namespace fade::bench;

namespace
{

struct Options
{
    std::string mode;
    std::vector<std::string> files;
    std::string monitor = "MemLeak";
    std::string profile = "bzip";
    unsigned shards = 1;
    unsigned clusters = 1;
    unsigned fades = 1;
    std::uint64_t warm = warmupInsts;
    std::uint64_t instr = measureInsts;
    SchedulerPolicy policy = SchedulerPolicy::Lockstep;
    Engine engine = Engine::PerCycle;
    bool policySet = false;
    bool engineSet = false;
    std::uint64_t maxRecords = 32;
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_tool --capture OUT [--monitor M] [--profile P]\n"
        "                  [--shards N] [--clusters C] [--fades K]\n"
        "                  [--warm N] [--instr N] [--policy lockstep|"
        "parallel]\n"
        "                  [--engine percycle|rungrain]\n"
        "       trace_tool --replay FILE [--policy ...] [--engine ...]\n"
        "       trace_tool --verify FILE...\n"
        "       trace_tool --stats FILE\n"
        "       trace_tool --dump FILE [--max N (0 = all)]\n");
    return 2;
}

struct RunOutcome
{
    MultiCoreResult result;
    std::uint64_t hash = 0;
};

/** Build the capture-side config from the command-line options. */
MultiCoreConfig
captureConfig(const Options &opt)
{
    MultiCoreConfig cfg;
    cfg.monitor = opt.monitor;
    cfg.numShards = opt.shards;
    cfg.topology.clusters = opt.clusters;
    cfg.shard.fadesPerShard = opt.fades;
    cfg.scheduler.policy = opt.policy;
    cfg.engine = opt.engine;
    cfg.workloads = {profileFor(opt.monitor, opt.profile)};
    return cfg;
}

/** Warm up, run, fingerprint. */
RunOutcome
drive(MultiCoreSystem &sys, std::uint64_t warm, std::uint64_t instr)
{
    RunOutcome o;
    sys.warmup(warm);
    o.result = sys.run(instr);
    o.hash = fingerprintHash(resultFingerprint(sys, o.result));
    return o;
}

int
doCapture(const Options &opt)
{
    MultiCoreConfig cfg = captureConfig(opt);
    cfg.traceOut = opt.files.at(0);
    MultiCoreSystem sys(cfg);
    RunOutcome o = drive(sys, opt.warm, opt.instr);
    sys.closeTrace(o.hash);

    TraceReader check(cfg.traceOut);
    std::printf("captured %s: %u stream(s), %llu bytes, "
                "%llu instructions + %llu warmup per shard\n",
                cfg.traceOut.c_str(), check.numStreams(),
                (unsigned long long)check.fileBytes(),
                (unsigned long long)opt.instr,
                (unsigned long long)opt.warm);
    std::printf("result fingerprint hash: %016llx\n",
                (unsigned long long)o.hash);
    return 0;
}

int
replayOne(const std::string &file, const Options &opt, bool quiet)
{
    MultiCoreConfig cfg = replayConfig(file);
    if (opt.policySet)
        cfg.scheduler.policy = opt.policy;
    if (opt.engineSet)
        cfg.engine = opt.engine;
    const TraceManifest m = TraceReader(file).manifest();

    // The manifest hash pins the capture's per-cycle-identical timing;
    // the run-grain engine models timing, so its full-result hash is
    // legitimately different. Replay still runs (and is deterministic),
    // but the hash check is informational only under --engine rungrain
    // (functional equality across engines is enforced by
    // tests/test_pipeline.cc, and on replayed captures by
    // tests/test_tracefile.cc).
    bool grainTiming = cfg.engine == Engine::RunGrain;

    MultiCoreSystem sys(cfg);
    RunOutcome o =
        drive(sys, m.warmupInstructions, m.measureInstructions);

    if (grainTiming) {
        std::printf("%s: replayed under the run-grain engine, hash "
                    "%016llx (manifest hash %016llx pins per-cycle "
                    "timing — not compared)\n",
                    file.c_str(), (unsigned long long)o.hash,
                    (unsigned long long)m.fingerprintHash);
        return 0;
    }
    if (!m.hasFingerprint) {
        std::printf("%s: replayed, hash %016llx (capture recorded no "
                    "result hash to check)\n",
                    file.c_str(), (unsigned long long)o.hash);
        return 0;
    }
    if (o.hash != m.fingerprintHash) {
        std::printf("%s: REPLAY DIVERGED: got %016llx, capture "
                    "recorded %016llx\n",
                    file.c_str(), (unsigned long long)o.hash,
                    (unsigned long long)m.fingerprintHash);
        return 1;
    }
    if (!quiet)
        std::printf("%s: replay bit-identical to capture "
                    "(hash %016llx, %llu instructions, %u shard(s))\n",
                    file.c_str(), (unsigned long long)o.hash,
                    (unsigned long long)o.result.totalInstructions,
                    sys.numShards());
    else
        std::printf("%s: ok (%016llx)\n", file.c_str(),
                    (unsigned long long)o.hash);
    return 0;
}

int
doVerify(const Options &opt)
{
    int rc = 0;
    for (const std::string &f : opt.files)
        rc |= replayOne(f, opt, true);
    return rc;
}

void
printManifest(const TraceManifest &m)
{
    if (!m.present) {
        std::printf("manifest: none (capture not sealed with "
                    "closeTrace)\n");
        return;
    }
    std::printf("manifest:\n");
    std::printf("  monitor            %s\n",
                m.monitor.empty() ? "(baseline)" : m.monitor.c_str());
    std::printf("  warmup / measured  %llu / %llu instructions per "
                "shard\n",
                (unsigned long long)m.warmupInstructions,
                (unsigned long long)m.measureInstructions);
    std::printf("  shape              %llu shard(s), %llu cluster(s) x "
                "%llu, %llu filter unit(s)/shard, remote +%llu\n",
                (unsigned long long)m.numShards,
                (unsigned long long)m.clusters,
                (unsigned long long)m.shardsPerCluster,
                (unsigned long long)m.fadesPerShard,
                (unsigned long long)m.remoteLatency);
    std::printf("  core               %s (width %llu, rob %llu, mispredict "
                "+%llu%s)\n",
                m.coreName.c_str(), (unsigned long long)m.coreWidth,
                (unsigned long long)m.robSize,
                (unsigned long long)m.mispredictPenalty,
                m.inOrder ? ", in-order" : "");
    std::printf("  system             %s, %s, %s\n",
                m.accelerated ? "accelerated" : "unaccelerated",
                m.twoCore ? "two-core" : "SMT",
                m.perfectConsumer ? "perfect consumer"
                                  : "software consumer");
    std::printf("  queues             eq %llu, ueq %llu; slice %llu "
                "ticks\n",
                (unsigned long long)m.eqCapacity,
                (unsigned long long)m.ueqCapacity,
                (unsigned long long)m.sliceTicks);
    if (m.hasFingerprint)
        std::printf("  result hash        %016llx\n",
                    (unsigned long long)m.fingerprintHash);
}

int
doStats(const Options &opt)
{
    TraceReader r(opt.files.at(0));
    std::printf("%s: format v%u, %llu bytes\n", opt.files.at(0).c_str(),
                r.version(), (unsigned long long)r.fileBytes());
    printManifest(r.manifest());

    for (unsigned s = 0; s < r.numStreams(); ++s) {
        const TraceStreamMeta &sm = r.stream(s);
        std::uint64_t classes[unsigned(InstClass::NumClasses)] = {};
        TraceReader::Cursor c = r.cursor(s);
        Instruction inst;
        while (c.next(inst))
            ++classes[unsigned(inst.cls)];
        std::printf("stream %u: %s (seed %llu, %u thread(s)) — %llu "
                    "records in %llu block(s), %llu bytes (%.2f "
                    "B/record)\n",
                    s, sm.profile.c_str(), (unsigned long long)sm.seed,
                    sm.numThreads, (unsigned long long)sm.records,
                    (unsigned long long)r.streamBlocks(s),
                    (unsigned long long)r.streamBytes(s),
                    sm.records ? double(r.streamBytes(s)) /
                                     double(sm.records)
                               : 0.0);
        for (unsigned k = 0; k < unsigned(InstClass::NumClasses); ++k)
            if (classes[k])
                std::printf("  %-10s %10llu (%.1f%%)\n",
                            instClassName(InstClass(k)),
                            (unsigned long long)classes[k],
                            100.0 * double(classes[k]) /
                                double(sm.records));
    }
    return 0;
}

int
doDump(const Options &opt)
{
    TraceReader r(opt.files.at(0));
    for (unsigned s = 0; s < r.numStreams(); ++s) {
        const TraceStreamMeta &sm = r.stream(s);
        std::printf("stream %u: %s, %llu records\n", s,
                    sm.profile.c_str(), (unsigned long long)sm.records);
        TraceReader::Cursor c = r.cursor(s);
        Instruction inst;
        std::uint64_t i = 0;
        while (c.next(inst)) {
            if (opt.maxRecords && i >= opt.maxRecords) {
                std::printf("  ... (%llu more)\n",
                            (unsigned long long)(sm.records - i));
                break;
            }
            std::printf("  %8llu pc=%08llx t%u %-10s",
                        (unsigned long long)i,
                        (unsigned long long)inst.pc, inst.tid,
                        instClassName(inst.cls));
            if (inst.isMemRef())
                std::printf(" addr=%08llx/%u",
                            (unsigned long long)inst.memAddr,
                            inst.memSize);
            if (inst.isStackUpdate() ||
                inst.hlKind != EventKind::Inst)
                std::printf(" %s base=%08llx bytes=%u",
                            eventKindName(inst.hlKind),
                            (unsigned long long)inst.frameBase,
                            inst.frameBytes);
            if (inst.mispredict)
                std::printf(" mispredict");
            if (inst.truth)
                std::printf(" truth=%02x", inst.truth);
            std::printf("\n");
            ++i;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        auto mode = [&](const char *m) {
            if (!opt.mode.empty()) {
                std::fprintf(stderr, "conflicting modes: --%s and %s\n",
                             opt.mode.c_str(), argv[i]);
                std::exit(2);
            }
            opt.mode = m;
            opt.files.push_back(next(argv[i]));
        };
        if (!std::strcmp(argv[i], "--capture")) {
            mode("capture");
        } else if (!std::strcmp(argv[i], "--replay")) {
            mode("replay");
        } else if (!std::strcmp(argv[i], "--verify")) {
            mode("verify");
            while (i + 1 < argc && argv[i + 1][0] != '-')
                opt.files.push_back(argv[++i]);
        } else if (!std::strcmp(argv[i], "--stats")) {
            mode("stats");
        } else if (!std::strcmp(argv[i], "--dump")) {
            mode("dump");
        } else if (!std::strcmp(argv[i], "--monitor")) {
            opt.monitor = next("--monitor");
        } else if (!std::strcmp(argv[i], "--profile")) {
            opt.profile = next("--profile");
        } else if (!std::strcmp(argv[i], "--shards")) {
            opt.shards =
                unsigned(std::strtoul(next("--shards"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--clusters")) {
            opt.clusters =
                unsigned(std::strtoul(next("--clusters"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--fades")) {
            opt.fades =
                unsigned(std::strtoul(next("--fades"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--warm")) {
            opt.warm = std::strtoull(next("--warm"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--instr")) {
            opt.instr = std::strtoull(next("--instr"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--max")) {
            opt.maxRecords = std::strtoull(next("--max"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--policy")) {
            std::string p = next("--policy");
            if (p != "lockstep" && p != "parallel") {
                std::fprintf(stderr,
                             "unknown --policy '%s' (expected lockstep "
                             "or parallel)\n",
                             p.c_str());
                return usage();
            }
            opt.policy = p == "parallel" ? SchedulerPolicy::ParallelBatched
                                         : SchedulerPolicy::Lockstep;
            opt.policySet = true;
        } else if (!std::strcmp(argv[i], "--engine")) {
            std::string e = next("--engine");
            if (e != "percycle" && e != "rungrain") {
                std::fprintf(stderr,
                             "unknown --engine '%s' (expected percycle "
                             "or rungrain)\n",
                             e.c_str());
                return usage();
            }
            opt.engine = e == "rungrain" ? Engine::RunGrain
                                         : Engine::PerCycle;
            opt.engineSet = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return usage();
        }
    }
    if (opt.mode.empty())
        return usage();

    try {
        if (opt.mode == "capture")
            return doCapture(opt);
        if (opt.mode == "replay")
            return replayOne(opt.files.at(0), opt, false);
        if (opt.mode == "verify")
            return doVerify(opt);
        if (opt.mode == "stats")
            return doStats(opt);
        if (opt.mode == "dump")
            return doDump(opt);
    } catch (const TraceError &e) {
        std::fprintf(stderr, "trace_tool: %s\n", e.what());
        return 1;
    }
    return usage();
}
