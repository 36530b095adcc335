/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: standard
 * warmup/measure slice lengths, slowdown measurement against the
 * unmonitored baseline, and paper-vs-measured table plumbing.
 */

#ifndef FADE_BENCH_COMMON_HH
#define FADE_BENCH_COMMON_HH

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "monitor/factory.hh"
#include "sim/logging.hh"
#include "sim/table.hh"
#include "system/system.hh"
#include "trace/profile.hh"

namespace fade::bench
{

/** SMARTS-style slice lengths (Section 6 methodology). */
constexpr std::uint64_t warmupInsts = 25000;
constexpr std::uint64_t measureInsts = 60000;

/** Benchmarks used by a monitor (Section 6). */
inline const std::vector<std::string> &
benchmarksFor(const std::string &monitor)
{
    if (monitor == "AtomCheck")
        return parallelBenchmarks();
    if (monitor == "TaintCheck")
        return taintBenchmarks();
    return specBenchmarks();
}

/** The profile @p bench names under @p monitor (lookupProfile);
 *  fatal when there is none. */
inline BenchProfile
profileFor(const std::string &monitor, const std::string &bench)
{
    std::optional<BenchProfile> p = lookupProfile(monitor, bench);
    fatal_if(!p, "unknown benchmark profile '", bench, "' for monitor '",
             monitor, "'");
    return *p;
}

/** Cycles for the unmonitored baseline (cached per profile+core). */
inline std::uint64_t
baselineCycles(const BenchProfile &prof, const CoreParams &core)
{
    static std::map<std::string, std::uint64_t> cache;
    std::string key = prof.name + "/" + core.name;
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    SystemConfig cfg;
    cfg.core = core;
    cfg.accelerated = false;
    MonitoringSystem sys(cfg, prof, nullptr);
    sys.warmup(warmupInsts);
    RunResult r = sys.run(measureInsts);
    cache[key] = r.cycles;
    return r.cycles;
}

/** One monitored measurement. */
struct Measured
{
    RunResult run;
    double slowdown = 0.0;
    double filtering = 0.0;
    FadeStats fadeStats;
};

/** Run monitor+benchmark under @p cfg and normalize to unmonitored. */
inline Measured
measure(const SystemConfig &cfg, const std::string &monitor,
        const BenchProfile &prof,
        std::uint64_t insts = measureInsts)
{
    Measured m;
    auto mon = makeMonitor(monitor);
    MonitoringSystem sys(cfg, prof, mon.get());
    sys.warmup(warmupInsts);
    m.run = sys.run(insts);
    m.slowdown =
        double(m.run.cycles) / double(baselineCycles(prof, cfg.core));
    if (sys.fade()) {
        m.fadeStats = sys.fade()->stats();
        m.filtering = m.fadeStats.filteringRatio();
    }
    return m;
}

inline void
header(const char *what)
{
    std::printf("==============================================="
                "=========================\n");
    std::printf("%s\n", what);
    std::printf("==============================================="
                "=========================\n");
}

} // namespace fade::bench

#endif // FADE_BENCH_COMMON_HH
