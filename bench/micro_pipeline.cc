/**
 * @file
 * Single-shard engine microbenchmark: events/sec of the per-cycle
 * reference engine vs the run-grain engine (system/rungrain.hh) on
 * one monitored shard, plus the bulk-transport throughput of the
 * ring-buffer BoundedQueue. The run-grain engine must agree with the
 * reference on every functional value (event counts, filter verdicts,
 * handler work, bug reports) on a matched instruction window — its
 * timing is modeled, so cycle counts and slice-boundary overshoot
 * differ by design (docs/ARCHITECTURE.md "Run-grain engine") — and
 * the reference run must monitor at least one event. Both checks are
 * hard failures. There is deliberately no perf *gate*: CI
 * runs this as a smoke test (--smoke) and perf numbers are tracked
 * through the emitted JSON lines (see docs/BENCHMARKS.md — measure
 * speedups on a quiet multi-core host, not a shared 1-CPU container).
 *
 * Wall clock per engine is the median of --reps timed repetitions
 * (after one discarded warmup repetition when reps > 1), which keeps
 * the JSON trajectories stable on noisy shared hosts; the best rep is
 * reported alongside.
 *
 * Usage: micro_pipeline [--smoke] [--profile NAME] [--monitor NAME]
 *                       [--instr N] [--reps N]
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "system/rungrain.hh"

using namespace fade;
using namespace fade::bench;

namespace
{

struct EngineRun
{
    RunResult run;
    double medianWall = 0.0;
    double bestWall = 0.0;
    /** Measured-slice deltas of the run-grain decomposition. */
    RunGrainDriverStats grain;
};

/** Prefix of MonitoringSystem::functionalFingerprint() (diagnostics). */
const char *const kFunctionalNames[] = {
    "retired", "produced", "handlerInstructions", "handlersRun",
    "instEvents", "filtered", "filteredCC", "filteredRU", "partialPass",
    "partialFail", "unfiltered", "stackEvents", "highLevelEvents",
    "shots", "comparisons", "crossShardEvents", "suuCycles",
};

void
dumpDiff(const std::vector<std::uint64_t> &a,
         const std::vector<std::uint64_t> &b)
{
    constexpr std::size_t numNames =
        sizeof(kFunctionalNames) / sizeof(kFunctionalNames[0]);
    if (a.size() != b.size())
        std::printf("  length %zu vs %zu\n", a.size(), b.size());
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        if (a[i] != b[i])
            std::printf("  [%zu] %s: %llu vs %llu\n", i,
                        i < numNames ? kFunctionalNames[i]
                                     : "(hist/per-id/reports)",
                        (unsigned long long)a[i], (unsigned long long)b[i]);
}

/**
 * The run-grain functional-equality check, on matched instruction
 * windows: the per-cycle reference overshoots a retirement target by
 * up to commit-width-1 (it checks once per cycle), so the run-grain
 * system is driven to per-cycle's *actual* retired count, both are
 * drained, and the cumulative functional fingerprints must then be
 * bit-identical (no warmup — a warmup slice would offset the stream
 * positions by per-cycle's warmup overshoot).
 */
bool
functionalCrossCheck(const std::string &profile,
                     const std::string &monitor, std::uint64_t instr)
{
    std::vector<std::uint64_t> fp[2];
    std::uint64_t target = instr;
    for (int i = 0; i < 2; ++i) {
        SystemConfig cfg;
        cfg.engine = i ? Engine::RunGrain : Engine::PerCycle;
        auto mon = makeMonitor(monitor);
        MonitoringSystem sys(cfg, specProfile(profile), mon.get());
        sys.run(target);
        sys.drain();
        // Match per-cycle's actual retirement: the overshoot past the
        // target plus the unmonitored tail drain() lets retire.
        if (!i)
            target = sys.retired();
        fp[i] = sys.functionalFingerprint();
    }
    if (fp[0] != fp[1]) {
        std::printf("ENGINES DIVERGED: run-grain functional results "
                    "are not identical to per-cycle on a matched "
                    "%llu-instruction window\n",
                    (unsigned long long)target);
        dumpDiff(fp[0], fp[1]);
        return false;
    }
    std::printf("functional cross-check: run-grain == per-cycle on a "
                "matched %llu-instruction window\n\n",
                (unsigned long long)target);
    return true;
}

RunGrainDriverStats
grainDelta(const RunGrainDriverStats &a, const RunGrainDriverStats &b)
{
    RunGrainDriverStats d;
    d.instructions = b.instructions - a.instructions;
    d.events = b.events - a.events;
    d.handlers = b.handlers - a.handlers;
    d.cyclesClosedFormed = b.cyclesClosedFormed - a.cyclesClosedFormed;
    d.cyclesFastForwarded = b.cyclesFastForwarded - a.cyclesFastForwarded;
    d.cyclesStepped = b.cyclesStepped - a.cyclesStepped;
    return d;
}

EngineRun
runEngine(Engine e, const std::string &profile, const std::string &monitor,
          std::uint64_t warm, std::uint64_t instr, unsigned reps)
{
    EngineRun out;
    std::vector<double> walls;
    // One discarded repetition warms the host (allocator, caches,
    // branch predictors) before anything is timed.
    unsigned total = reps > 1 ? reps + 1 : reps;
    for (unsigned rep = 0; rep < total; ++rep) {
        SystemConfig cfg;
        cfg.engine = e;
        auto mon = makeMonitor(monitor);
        MonitoringSystem sys(cfg, specProfile(profile), mon.get());
        sys.warmup(warm);
        RunGrainDriverStats before;
        if (sys.runGrainDriver())
            before = sys.runGrainDriver()->stats();
        auto t0 = std::chrono::steady_clock::now();
        RunResult r = sys.run(instr);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        if (reps > 1 && rep == 0)
            continue; // discarded host-warmup repetition
        walls.push_back(wall);
        // Results are deterministic across repetitions; keep the last.
        out.run = r;
        if (sys.runGrainDriver())
            out.grain = grainDelta(before, sys.runGrainDriver()->stats());
    }
    std::sort(walls.begin(), walls.end());
    out.bestWall = walls.front();
    out.medianWall = walls[(walls.size() - 1) / 2];
    return out;
}

void
jsonLine(const char *engine, const std::string &profile,
         const std::string &monitor, const EngineRun &r)
{
    std::printf("{\"bench\":\"micro_pipeline\",\"profile\":\"%s\","
                "\"monitor\":\"%s\",\"engine\":\"%s\","
                "\"instructions\":%llu,\"cycles\":%llu,\"events\":%llu,"
                "\"wall_s\":%.6f,\"wall_best_s\":%.6f,"
                "\"events_per_s\":%.0f,\"cycles_per_s\":%.0f",
                profile.c_str(), monitor.c_str(), engine,
                (unsigned long long)r.run.appInstructions,
                (unsigned long long)r.run.cycles,
                (unsigned long long)r.run.monitoredEvents, r.medianWall,
                r.bestWall, r.run.monitoredEvents / r.medianWall,
                r.run.cycles / r.medianWall);
    if (!std::strcmp(engine, "rungrain"))
        std::printf(",\"cycles_closed_formed\":%llu,"
                    "\"cycles_fast_forwarded\":%llu,"
                    "\"cycles_stepped\":%llu",
                    (unsigned long long)r.grain.cyclesClosedFormed,
                    (unsigned long long)r.grain.cyclesFastForwarded,
                    (unsigned long long)r.grain.cyclesStepped);
    std::printf("}\n");
}

/** Ring-buffer queue transport: per-element vs bulk ops. */
void
queueTransportMicro(std::uint64_t ops)
{
    BoundedQueue<MonEvent> q(32);
    MonEvent ev;
    std::vector<MonEvent> batch(32);

    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; i += 32) {
        for (int k = 0; k < 32; ++k)
            q.push(ev);
        for (int k = 0; k < 32; ++k)
            q.pop();
    }
    double perOp = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; i += 32) {
        q.pushRun(batch.begin(), batch.end());
        q.popRun(32);
    }
    double bulk = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    std::printf("queue transport (32-entry ring, %llu events each "
                "way):\n  push/pop     %8.1f M events/s\n"
                "  pushRun/popRun %6.1f M events/s (%.2fx)\n",
                (unsigned long long)ops, ops / perOp / 1e6,
                ops / bulk / 1e6, perOp / bulk);
    std::printf("{\"bench\":\"micro_pipeline_queue\",\"events\":%llu,"
                "\"push_pop_Mev_s\":%.1f,\"run_Mev_s\":%.1f}\n",
                (unsigned long long)ops, ops / perOp / 1e6,
                ops / bulk / 1e6);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string profile = "astar";
    std::string monitor = "AddrCheck";
    std::uint64_t warm = 20000;
    std::uint64_t instr = 2000000;
    unsigned reps = 3;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--smoke")) {
            instr = 100000;
            reps = 1;
        } else if (!std::strcmp(argv[i], "--profile")) {
            profile = next("--profile");
        } else if (!std::strcmp(argv[i], "--monitor")) {
            monitor = next("--monitor");
        } else if (!std::strcmp(argv[i], "--instr")) {
            instr = std::strtoull(next("--instr"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--reps")) {
            reps = unsigned(std::strtoul(next("--reps"), nullptr, 10));
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    header(("micro_pipeline: " + profile + " + " + monitor +
            ", per-cycle vs run-grain engine")
               .c_str());

    if (!functionalCrossCheck(profile, monitor, instr))
        return 1;

    EngineRun per = runEngine(Engine::PerCycle, profile, monitor, warm,
                              instr, reps);
    EngineRun grain = runEngine(Engine::RunGrain, profile, monitor, warm,
                                instr, reps);

    if (per.run.monitoredEvents == 0) {
        std::printf("VACUOUS: the per-cycle reference run monitored 0 "
                    "events\n");
        return 1;
    }
    std::printf("instructions %llu | cycles %llu | events %llu "
                "(rungrain functionally identical on matched windows, "
                "%llu modeled cycles)\n\n",
                (unsigned long long)per.run.appInstructions,
                (unsigned long long)per.run.cycles,
                (unsigned long long)per.run.monitoredEvents,
                (unsigned long long)grain.run.cycles);
    std::printf("per-cycle engine: %7.3fs  %9.0f events/s  %9.0f "
                "cycles/s\n",
                per.medianWall, per.run.monitoredEvents / per.medianWall,
                per.run.cycles / per.medianWall);
    std::printf("run-grain engine: %7.3fs  %9.0f events/s  %9.0f "
                "cycles/s\n",
                grain.medianWall,
                grain.run.monitoredEvents / grain.medianWall,
                grain.run.cycles / grain.medianWall);
    std::printf("engine speedup (median of %u): run-grain %.2fx\n",
                reps, per.medianWall / grain.medianWall);
    std::uint64_t modeled = grain.grain.cyclesClosedFormed +
                            grain.grain.cyclesFastForwarded +
                            grain.grain.cyclesStepped;
    std::printf("run-grain driver: %llu modeled cycles, %llu "
                "closed-formed (%.1f%%) + %llu fast-forwarded (%.1f%%) "
                "+ %llu stepped\n\n",
                (unsigned long long)modeled,
                (unsigned long long)grain.grain.cyclesClosedFormed,
                modeled ? 100.0 * grain.grain.cyclesClosedFormed / modeled
                        : 0.0,
                (unsigned long long)grain.grain.cyclesFastForwarded,
                modeled ? 100.0 * grain.grain.cyclesFastForwarded /
                              modeled
                        : 0.0,
                (unsigned long long)grain.grain.cyclesStepped);

    jsonLine("percycle", profile, monitor, per);
    jsonLine("rungrain", profile, monitor, grain);
    std::printf("\n");

    queueTransportMicro(instr >= 1000000 ? 32000000ull : 3200000ull);
    return 0;
}
