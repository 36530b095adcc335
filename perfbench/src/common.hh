/**
 * @file
 * Shared plumbing of the benchmark harness: run arguments, the outcome a
 * workload reports (operation counts, failures, raw samples and layer
 * values, written out as one JSON document for run.py to aggregate),
 * and the in-memory span log of the traced mode.
 *
 * The harness only measures. Medians, percentiles and the printed report
 * are computed by perfbench/stats.py from the raw samples written here.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line arguments of `perfbench_harness gen|run`. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes, every check still on (the benchmark's own tests). */
    bool smoke = false;
    /** Short traced run of a workload other than the one under test:
     *  the minimum amounts of work drop (one sweep, ten replays), so
     *  its per-layer rows cost little. */
    bool probe = false;
    /** Working directory for inputs and outputs (relative paths are
     *  resolved against the process's working directory). */
    std::string dir;
    /** Path of the faded executable (daemon_mix). */
    std::string faded;
};

/** One recorded interval of the traced mode. */
struct Span
{
    std::string name;
    /** Shared by every span of one point, epoch or session. */
    std::uint64_t id = 0;
    /** Index of the enclosing span in the log, -1 for a root. */
    std::int64_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Spans kept in memory and written out once at the end. Disabled logs
 * record nothing, so the untraced run pays only for the clock reads
 * its end-to-end metrics need anyway. Thread-safe: daemon_mix clients
 * record from several threads.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record [t0, t1] and return its index (-1 when disabled). */
    std::int64_t add(const char *name, std::uint64_t id,
                     std::int64_t parent, Clock::time_point t0,
                     Clock::time_point t1);

    /** Open a span whose end is not known yet; close() sets it. */
    std::int64_t open(const char *name, std::uint64_t id,
                      std::int64_t parent, Clock::time_point t0);
    void close(std::int64_t idx, Clock::time_point t1);

    /** CSV: index,name,id,parent,start_ns,end_ns. */
    void write(const std::string &path) const;

  private:
    std::int64_t ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_)
            .count();
    }

    const bool enabled_;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/**
 * The host's speed over a run, sampled with a fixed reference kernel that
 * does not touch the simulator. On a shared host the simulator's speed
 * moves by tens of percent within seconds; the kernel slows down with it,
 * so each host time of the end-to-end metrics is reported together with
 * the kernel's slowdown around it (stats.py divides one by the other).
 * Thread-safe: daemon_mix samples from a thread of its own.
 */
class HostSpeed
{
  public:
    /** Kernel time on the host the benchmark was tuned on, in a quiet
     *  period; slowdown() is relative to it. */
    static constexpr double nominalMs = 5.5;
    /** tick() samples at most this often. */
    static constexpr double intervalSeconds = 0.1;

    /** Run the kernel once and record its time. */
    void sample();
    /** sample() if intervalSeconds have passed since the last sample. */
    void tick();

    /** Median kernel time of the samples taken within a second of
     *  [t0, t1] (at least the three nearest) ÷ nominalMs: above 1 when
     *  the host was slower than nominal. */
    double slowdown(Clock::time_point t0, Clock::time_point t1) const;

    /** Every sample's kernel time, ms, in the order taken. */
    std::vector<double> samplesMs() const;

    /** Peak resident set of this process, MiB, without the kernel's own
     *  table (Linux resets the high-water mark after each pass). */
    double peakRssMibSansKernel() const;

  private:
    struct Sample
    {
        Clock::time_point at;
        double ms;
    };

    mutable std::mutex m_;
    std::vector<Sample> samples_;
    double peakMib_ = 0.0;
};

/** A host time (or rate) of an end-to-end metric and the interval it was
 *  measured over, for HostSpeed::slowdown. */
struct Timed
{
    double value;
    Clock::time_point t0, t1;
};

/**
 * A per-layer value as run.py prints it: raw samples (reported as a
 * median with a tail percentile and the sample count) or a ratio
 * (reported with its numerator and denominator).
 */
struct LayerValue
{
    std::string unit;
    std::vector<double> samples;
    bool isRatio = false;
    double num = 0.0;
    double den = 0.0;
};

/** What one workload run reports. */
struct Outcome
{
    explicit Outcome(bool trace) : spans(trace) {}

    /** Operations (points, replay runs, sessions) attempted / failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check. */
    std::vector<std::string> failures;

    /** Wall seconds of the timed phase (value: seconds) and operations
     *  completed in it. */
    Timed wall{};
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    std::vector<Timed> opMs;
    std::vector<Timed> setupSeconds;
    std::vector<Timed> eventsPerSecond;
    double peakRssMib = 0.0;
    HostSpeed host;

    /** Workload-specific report lines (name -> printable value). */
    std::map<std::string, std::string> info;
    std::map<std::string, double> infoNum;
    std::map<std::string, LayerValue> layers;

    SpanLog spans;

    /** Record a failed check; @return @p ok. */
    bool check(bool ok, const std::string &what);

    void samples(const std::string &name, const std::string &unit,
                 std::vector<double> v);
    void ratio(const std::string &name, const std::string &unit,
               double num, double den);

    /** Serialize everything but the spans. Each Timed list is written as
     *  its values plus the host's slowdown over each one's interval. */
    std::string json(const RunArgs &a) const;
};

/** Peak resident set (VmHWM) of process @p pid ("self" for this one),
 *  MiB; 0 when it cannot be read. */
double peakRssMib(const std::string &pid = "self");

/** Median of @p v (v is copied). 0 for an empty vector. */
double median(std::vector<double> v);

/** Deterministic 64-bit mix (SplitMix64 finalizer). */
std::uint64_t mix64(std::uint64_t x);

/** Workloads: generate inputs / run. gen* may be no-ops. */
void genPaperSweep(const RunArgs &a);
void runPaperSweep(const RunArgs &a, Outcome &o);
void genReplayCmp4(const RunArgs &a);
void runReplayCmp4(const RunArgs &a, Outcome &o);
void genDaemonMix(const RunArgs &a);
void runDaemonMix(const RunArgs &a, Outcome &o);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
