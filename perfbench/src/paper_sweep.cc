/**
 * @file
 * paper_sweep: Fig. 9's loop on one thread. For each of the five paper
 * monitors and each benchmark in its list it runs three systems (the
 * unmonitored baseline, unaccelerated monitoring, and FADE) on the
 * default dual-threaded aggressive-OoO core with the per-cycle engine,
 * using the paper's warmup/measure slices (bench/common.hh). Profile
 * seeds are offset by the workload seed. Whole sweeps repeat until the
 * time budget is spent; every sweep of one invocation must reproduce
 * the first sweep's fingerprint. The per-monitor geomean slowdowns are
 * reported for run.py to compare against Fig. 9.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "bench/common.hh"
#include "common.hh"
#include "probes.hh"

using namespace fade;

namespace perfbench
{

namespace
{

struct PointSpec
{
    std::string monitor;
    std::string bench;
    BenchProfile profile;
};

std::vector<PointSpec>
sweepSpecs(const RunArgs &a)
{
    std::vector<PointSpec> v;
    for (const std::string &mon : paperMonitorNames()) {
        const auto &benches = bench::benchmarksFor(mon);
        for (const std::string &b : benches) {
            BenchProfile p = bench::profileFor(mon, b);
            p.seed += a.seed;
            v.push_back({mon, b, p});
            if (a.smoke)
                break;
        }
    }
    return v;
}

enum class Kind
{
    Baseline,
    Unaccelerated,
    Fade,
};

/** Counters of the FADE points that feed the per-layer metrics. They
 *  are simulated, so they repeat exactly from sweep to sweep. */
struct FadeTotals
{
    std::uint64_t events = 0, handlers = 0, handlerInsts = 0;
    std::uint64_t cycles = 0, appStall = 0, monIdle = 0;
    std::uint64_t instEvents = 0, elided = 0, busy = 0, ueqStall = 0;
    std::uint64_t mdHits = 0, mdMisses = 0;
    Log2Histogram eqOccupancy;
};

struct Sweep
{
    Clock::time_point start, end;
    double setupSeconds = 0.0;
    double measureSeconds = 0.0; ///< monitored points only
    std::uint64_t events = 0;
    std::uint64_t monitoredInsts = 0;
    std::uint64_t points = 0;
    std::uint64_t fingerprint = 0;
    std::map<std::string, std::vector<double>> fadeSlowdown, unaccSlowdown;
    FadeTotals fade;
};

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return v.empty() ? 0.0 : std::exp(s / double(v.size()));
}

/** Value at or below which 95% of the histogram's samples fall (the
 *  upper bound of that log2 bucket). */
double
histP95(const Log2Histogram &h)
{
    std::uint64_t seen = 0;
    const auto &b = h.buckets();
    for (unsigned i = 0; i < b.size(); ++i) {
        seen += b[i];
        if (double(seen) >= 0.95 * double(h.total()))
            return double(Log2Histogram::bucketUpper(i));
    }
    return double(h.maxValue());
}

class SweepRunner
{
  public:
    SweepRunner(const RunArgs &a, Outcome &o)
        : a_(a), o_(o), specs_(sweepSpecs(a)),
          warm_(a.smoke ? 500 : bench::warmupInsts),
          measure_(a.smoke ? 2000 : bench::measureInsts)
    {}

    const std::vector<PointSpec> &specs() const { return specs_; }

    Sweep
    run(std::uint64_t sweepId)
    {
        Sweep s;
        std::vector<std::uint64_t> fp;
        s.start = Clock::now();
        const std::int64_t root = o_.spans.open("sweep", sweepId, -1, s.start);
        for (const PointSpec &spec : specs_) {
            std::uint64_t baseCycles = 0;
            for (Kind k : {Kind::Baseline, Kind::Unaccelerated, Kind::Fade}) {
                point(spec, k, root, baseCycles, s, fp);
                o_.host.tick();
            }
        }
        s.end = Clock::now();
        o_.spans.close(root, s.end);
        s.fingerprint = fingerprintHash(fp);
        return s;
    }

    std::vector<double> constructMs, warmupSeconds;

  private:
    void
    point(const PointSpec &spec, Kind kind, std::int64_t parent,
          std::uint64_t &baseCycles, Sweep &s,
          std::vector<std::uint64_t> &fp)
    {
        const std::uint64_t id = nextPoint_++;
        const std::string what = spec.monitor + "/" + spec.bench + "/" +
                                 (kind == Kind::Baseline        ? "base"
                                  : kind == Kind::Unaccelerated ? "unacc"
                                                                : "fade");
        ++o_.attempted;
        bool ok = true;
        try {
            auto t0 = Clock::now();
            std::unique_ptr<Monitor> mon;
            if (kind != Kind::Baseline)
                mon = makeMonitor(spec.monitor);
            SystemConfig cfg;
            cfg.accelerated = kind == Kind::Fade;
            MonitoringSystem sys(cfg, spec.profile, mon.get());
            auto t1 = Clock::now();
            sys.warmup(warm_);
            auto t2 = Clock::now();
            RunResult r = sys.run(measure_);
            auto t3 = Clock::now();

            const std::int64_t pt = o_.spans.open("point", id, parent, t0);
            o_.spans.add("construct", id, pt, t0, t1);
            o_.spans.add("warmup", id, pt, t1, t2);
            o_.spans.add("measure", id, pt, t2, t3);
            o_.spans.close(pt, t3);

            o_.opMs.push_back({seconds(t0, t3) * 1e3, t0, t3});
            s.setupSeconds += seconds(t0, t2);
            constructMs.push_back(seconds(t0, t1) * 1e3);
            warmupSeconds.push_back(seconds(t1, t2));
            ++s.points;

            ok &= o_.check(r.appInstructions >= measure_ && r.cycles > 0,
                           what + ": measured slice did not complete");
            fp.insert(fp.end(),
                      {r.appInstructions, r.cycles, r.monitoredEvents,
                       r.handlersRun, r.handlerInstructions,
                       r.appStallCycles, r.monIdleCycles});
            if (kind == Kind::Baseline) {
                baseCycles = r.cycles;
            } else {
                ok &= o_.check(r.monitoredEvents > 0,
                               what + ": 0 monitored events");
                s.events += r.monitoredEvents;
                s.monitoredInsts += r.appInstructions;
                s.measureSeconds += seconds(t2, t3);
                double slow = baseCycles
                                  ? double(r.cycles) / double(baseCycles)
                                  : 0.0;
                ok &= o_.check(slow > 0.0, what + ": no baseline cycles");
                (kind == Kind::Fade ? s.fadeSlowdown
                                    : s.unaccSlowdown)[spec.monitor]
                    .push_back(slow);
            }
            if (kind == Kind::Fade) {
                FadeStats fs = sys.fadeStats();
                fp.insert(fp.end(), {fs.instEvents, fs.filtered,
                                     fs.partialPass, fs.unfiltered});
                FadeTotals &t = s.fade;
                t.events += r.monitoredEvents;
                t.handlers += r.handlersRun;
                t.handlerInsts += r.handlerInstructions;
                t.cycles += r.cycles;
                t.appStall += r.appStallCycles;
                t.monIdle += r.monIdleCycles;
                t.instEvents += fs.instEvents;
                t.elided += fs.filtered + fs.partialPass;
                t.busy += fs.busyCycles;
                t.ueqStall += fs.stallUeqFull;
                const Cache &md = sys.fade()->mdCache().cache();
                t.mdHits += md.hits();
                t.mdMisses += md.misses();
                t.eqOccupancy.merge(sys.eventQueue().occupancy());
            }
        } catch (const std::exception &e) {
            ok = o_.check(false, what + ": " + e.what());
        }
        if (!ok)
            ++o_.failed;
    }

    const RunArgs &a_;
    Outcome &o_;
    const std::vector<PointSpec> specs_;
    const std::uint64_t warm_;
    const std::uint64_t measure_;
    std::uint64_t nextPoint_ = 0;
};

/** Isolated probes over every profile the sweep runs: synthesis, then
 *  monitor dispatch and event extraction over a window of each
 *  (monitor, benchmark) stream. */
void
probeLayers(const std::vector<PointSpec> &specs, const RunArgs &a,
            Outcome &o, double measuredNsPerInstr)
{
    const std::uint64_t synthN = a.smoke ? 2000 : 60000;
    const std::size_t windowN = a.smoke ? 2000 : 16384;
    const int reps = a.smoke ? 1 : 5;

    std::vector<const PointSpec *> profiles;
    std::set<std::string> seen;
    for (const PointSpec &s : specs)
        if (seen.insert(s.profile.name).second)
            profiles.push_back(&s);

    std::vector<double> synth, dispatch, extract;
    for (int k = 0; k < reps; ++k) {
        double sec = 0.0;
        for (const PointSpec *p : profiles)
            sec += synthesizeSeconds(p->profile, synthN);
        synth.push_back(sec * 1e9 / double(synthN * profiles.size()));
    }
    std::vector<std::vector<Instruction>> windows;
    std::vector<std::unique_ptr<Monitor>> monitors;
    for (const PointSpec &s : specs) {
        windows.push_back(synthesizeWindow(s.profile, windowN));
        monitors.push_back(makeMonitor(s.monitor));
    }
    std::uint64_t events = 0;
    for (int k = 0; k < reps; ++k) {
        double dSec = 0.0, eSec = 0.0;
        std::vector<std::uint8_t> v;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            dSec += dispatchSeconds(*monitors[i], windows[i], v);
            std::uint64_t ev = 0;
            eSec += extractSeconds(*monitors[i], windows[i], v, ev);
            events += ev;
        }
        const double n = double(windowN * specs.size());
        dispatch.push_back(dSec * 1e9 / n);
        extract.push_back(eSec * 1e9 / n);
    }
    o.check(events > 0, "paper_sweep probes: no events extracted");

    o.infoNum["probe.dispatch_ns_per_instr"] = median(dispatch);
    o.infoNum["probe.extract_ns_per_instr"] = median(extract);
    o.samples("trace.synth_ns_per_instr", "ns/instr", synth);
    o.samples("system.percycle_residual_ns_per_instr", "ns/instr",
              {measuredNsPerInstr - median(synth) - median(dispatch) -
               median(extract)});
}

} // namespace

void
genPaperSweep(const RunArgs &)
{
    // Inputs are synthesized live from the seed-offset profiles.
}

void
runPaperSweep(const RunArgs &a, Outcome &o)
{
    SweepRunner runner(a, o);
    const std::size_t minSweeps = a.probe ? 1 : 2;
    const std::uint64_t minPoints = a.smoke || a.probe ? 0 : 200;

    std::vector<Sweep> sweeps;
    std::uint64_t points = 0;
    auto start = Clock::now();
    for (;;) {
        sweeps.push_back(runner.run(sweeps.size()));
        points += sweeps.back().points;
        if (sweeps.size() >= minSweeps && points >= minPoints &&
            (a.smoke || a.probe ||
             seconds(start, Clock::now()) >= a.seconds))
            break;
    }
    const auto end = Clock::now();
    o.wall = {seconds(start, end), start, end};
    o.ops = points;
    o.peakRssMib = o.host.peakRssMibSansKernel();

    std::vector<double> nsPerInstr;
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const Sweep &s = sweeps[i];
        o.events += s.events;
        o.setupSeconds.push_back({s.setupSeconds, s.start, s.end});
        o.eventsPerSecond.push_back(
            {double(s.events) / s.measureSeconds, s.start, s.end});
        nsPerInstr.push_back(s.measureSeconds * 1e9 /
                             double(s.monitoredInsts));
        if (i)
            o.check(s.fingerprint == sweeps[0].fingerprint,
                    "sweep " + std::to_string(i) +
                        " fingerprint differs from sweep 0");
    }

    // Simulated slowdowns (identical in every sweep); run.py compares
    // the FADE ones against Fig. 9.
    const Sweep &s0 = sweeps[0];
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  (unsigned long long)s0.fingerprint);
    o.info["sweep_fingerprint"] = buf;
    o.infoNum["sweeps"] = double(sweeps.size());
    for (const auto &[mon, v] : s0.fadeSlowdown) {
        o.infoNum["fade_slowdown." + mon] = geomean(v);
        o.infoNum["unaccelerated_slowdown." + mon] =
            geomean(s0.unaccSlowdown.at(mon));
    }

    if (!a.trace)
        return;
    const FadeTotals &t = s0.fade;
    o.samples("system.construct_ms", "ms", runner.constructMs);
    o.samples("system.warmup_s", "s", runner.warmupSeconds);
    o.ratio("monitor.handlers_per_event", "handlers/event", double(t.handlers),
            double(t.events));
    o.ratio("monitor.handler_instr_per_handler", "instr/handler",
            double(t.handlerInsts), double(t.handlers));
    o.ratio("core.filtering_ratio", "fraction", double(t.elided),
            double(t.instEvents));
    o.ratio("core.busy_share", "fraction", double(t.busy), double(t.cycles));
    o.ratio("core.ueq_full_stall_share", "fraction", double(t.ueqStall),
            double(t.cycles));
    o.samples("core.eq_occupancy_p95", "entries", {histP95(t.eqOccupancy)});
    o.ratio("cpu.app_stall_share", "fraction", double(t.appStall),
            double(t.cycles));
    o.ratio("cpu.mon_idle_share", "fraction", double(t.monIdle),
            double(t.cycles));
    o.ratio("mem.mdcache_miss_ratio", "fraction", double(t.mdMisses),
            double(t.mdHits + t.mdMisses));
    probeLayers(runner.specs(), a, o, median(nsPerInstr));
}

} // namespace perfbench
