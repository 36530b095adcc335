/**
 * @file
 * End-to-end monitoring system assembly (Fig. 8 of the paper). Supports
 * four configurations:
 *  - two-core, single-threaded cores: application core + monitor core,
 *    FADE next to the monitor core (Fig. 8(a));
 *  - single-core, dual-threaded: one SMT core hosting both the
 *    application and the monitor thread (Fig. 8(b));
 *  - the unaccelerated variants of both, where the application and the
 *    monitor communicate through a single queue; and
 *  - the unmonitored baseline used for slowdown normalization.
 *
 * Methodology mirrors the paper: a warmup slice runs first (caches,
 * MD cache, and metadata state warm), statistics are then reset, and
 * the measurement slice follows.
 */

#ifndef FADE_SYSTEM_SYSTEM_HH
#define FADE_SYSTEM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fade.hh"
#include "cpu/core.hh"
#include "mem/cache.hh"
#include "monitor/context.hh"
#include "monitor/monitor.hh"
#include "monitor/process.hh"
#include "sim/queue.hh"
#include "system/producer.hh"
#include "system/topology.hh"
#include "trace/generator.hh"

namespace fade
{

class CaptureSource;
class RunGrainDriver;
class ReplaySource;
class ThreadedSource;
class TraceReader;
class TraceWriter;

/**
 * Intra-shard execution engine. PerCycle is the reference: the paper's
 * results are defined by its cycle-by-cycle model. RunGrain replaces
 * per-cycle timing with closed-form recurrences between
 * monitor-visible events: it preserves every functional result bit for
 * bit (instruction stream, event stream, filter verdicts, handler
 * counts, bug reports — the functionalFingerprint() subset) but models
 * timing counters with its own deterministic equations
 * (docs/ARCHITECTURE.md, "Run-grain engine").
 */
enum class Engine : std::uint8_t
{
    /** Reference semantics: every component ticks every cycle
     *  (advance() steps the per-cycle loop). */
    PerCycle,
    /** Run-grain engine (system/rungrain.hh): closed-form dispatch /
     *  commit / filter-pipeline timing between monitor-visible events;
     *  functional results identical to PerCycle, timing counters
     *  modeled (deterministic, pinned by their own goldens). */
    RunGrain,
};

/** Printable engine name ("percycle", "rungrain"). */
const char *engineName(Engine e);

/** Full system configuration. */
struct SystemConfig
{
    CoreParams core = aggressiveOooParams();
    /** FADE present (false = unaccelerated software monitoring). */
    bool accelerated = true;
    /** Two cores (app + monitor) vs one dual-threaded core. */
    bool twoCore = false;
    /** Replace the consumer with an ideal 1-event/cycle sink (the
     *  Fig. 3 queue-occupancy study). */
    bool perfectConsumer = false;
    FadeParams fade;
    std::size_t eqCapacity = 32;  ///< 0 = unbounded
    std::size_t ueqCapacity = 16;
    /** Home shard id in a sharded multi-core system (0 = single-core).
     *  Stamped into every produced event and checked by FADE. */
    std::uint8_t shardId = 0;
    /** Intra-shard execution engine (functional results are
     *  engine-invariant). */
    Engine engine = Engine::PerCycle;
    /**
     * Filter units behind this shard's event queue (FadeGroup,
     * system/topology.hh). 1 = the classic single-FADE shard,
     * unchanged bit for bit; > 1 adds round-robin event steering
     * across K units with group-serialized stack/high-level events.
     * Ignored (no units built) in unaccelerated / perfect-consumer /
     * unmonitored configurations.
     */
    unsigned fadesPerShard = 1;
    /**
     * Replay: serve the application instruction stream from stream
     * `shardId` of this captured trace (trace/tracefile.hh) instead of
     * synthesizing it — no TraceGenerator is built, and the stream's
     * recorded workload must match the profile the system is given
     * (fatal on mismatch). Not owned.
     */
    const TraceReader *traceIn = nullptr;
    /**
     * Capture: tee the application stream to stream `shardId` of this
     * writer (the system registers the stream during construction, so
     * shards must be built in shard-id order). Composes with traceIn
     * (re-capturing a replay). Not owned.
     */
    TraceWriter *traceOut = nullptr;
};

/**
 * Deadlock bound for driving a warmup or measured slice: a generous
 * cycles-per-instruction cap after which the driver panics instead of
 * spinning forever. Shared by the single-core run loops and the
 * multi-core lockstep rounds (one round = one cycle per shard).
 */
constexpr Cycle
sliceCycleLimit(std::uint64_t instructions)
{
    return instructions * 400 + 1000000;
}

/** Results of one measured run. */
struct RunResult
{
    std::uint64_t appInstructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t monitoredEvents = 0;
    double appIpc = 0.0;
    double monitoredIpc = 0.0;
    /** Cycles the app thread stalled on a full event queue. */
    std::uint64_t appStallCycles = 0;
    /** Cycles the monitor thread had no work. */
    std::uint64_t monIdleCycles = 0;
    std::uint64_t handlerInstructions = 0;
    std::uint64_t handlersRun = 0;

    /**
     * Every counter, once, in fingerprint order: f(name, &member,
     * kind). The two IPCs are derived from these and not listed.
     */
    template <class F>
    static void
    forEachField(F &&f)
    {
        constexpr StatKind fn = StatKind::Functional;
        constexpr StatKind tm = StatKind::Timing;
        f("app_instructions", &RunResult::appInstructions, fn);
        f("cycles", &RunResult::cycles, tm);
        f("monitored_events", &RunResult::monitoredEvents, fn);
        f("app_stall_cycles", &RunResult::appStallCycles, tm);
        f("mon_idle_cycles", &RunResult::monIdleCycles, tm);
        f("handler_instructions", &RunResult::handlerInstructions, fn);
        f("handlers_run", &RunResult::handlersRun, fn);
    }
};

// A counter missing from forEachField would escape every fingerprint;
// this trips on the CI platform when the struct changes.
#if defined(__linux__) && defined(__x86_64__)
static_assert(sizeof(RunResult) == 72,
              "RunResult changed: list the member in "
              "RunResult::forEachField, then update this size");
#endif

/**
 * One monitored (or baseline) system instance. The monitor is owned by
 * the caller so its accumulated functional state (bug reports, leak
 * contexts) can outlive the system.
 */
class MonitoringSystem
{
  public:
    /**
     * @param cfg      system configuration
     * @param profile  workload profile for the trace generator
     * @param mon      lifeguard, or nullptr for the unmonitored baseline
     */
    MonitoringSystem(const SystemConfig &cfg, const BenchProfile &profile,
                     Monitor *mon);

    /**
     * Shard constructor: identical to the above, but the L2 is shared
     * with other shards instead of privately owned (multi-core CMP).
     * @param sharedL2  shared last-level cache (nullptr = private L2)
     */
    MonitoringSystem(const SystemConfig &cfg, const BenchProfile &profile,
                     Monitor *mon, Cache *sharedL2);

    ~MonitoringSystem();

    /** Run @p instructions app instructions without collecting stats. */
    void warmup(std::uint64_t instructions);

    /** Run a measured slice of @p instructions app instructions. */
    RunResult run(std::uint64_t instructions);

    /**
     * Externally driven slice protocol (used by the shard scheduler,
     * which drives shards in bounded slices): beginSlice() zeroes
     * statistics and marks the slice start; the driver then calls
     * advance() until retired() reaches its target; endSlice()
     * collects the results exactly as run() does. run() itself is
     * implemented on top of these.
     *
     * Thread-safety contract: a system instance is single-threaded.
     * The parallel scheduler may call advance() from a worker thread
     * because each shard is self-contained except for the shared L2,
     * which it reaches through a SliceL2View (see setL2Port); the L2
     * itself is only mutated at slice barriers. beginSlice(),
     * endSlice(), drain() and resetStats() must be called with no
     * worker driving the instance.
     */
    void beginSlice();
    RunResult endSlice();

    /**
     * Redirect every L2-facing port of this shard (both L1s and the
     * MD cache) to @p port, or back to the real L2 when @p port is
     * null. The shard scheduler installs a SliceL2View here for the
     * duration of a scheduled run so that concurrent shard slices
     * never touch the shared L2 directly.
     */
    void setL2Port(MemPort *port);

    /** App instructions retired since the last statistics reset. */
    std::uint64_t retired() const;

    /** Monitored events produced since the last statistics reset. */
    std::uint64_t produced() const;

    /** Let in-flight events and handlers complete (producer paused). */
    void drain();

    /**
     * The engine-invariant functional fingerprint: the
     * StatKind::Functional counters of RunResult (`run.*`) and of the
     * merged FadeStats (`fade.*`) since the last statistics reset,
     * then the monitor's report count (`reports`). The run-grain
     * engine reproduces it bit for bit against the per-cycle reference
     * when both cover the same instruction window
     * (docs/ARCHITECTURE.md, "Run-grain engine"). Call it once, after
     * the system is quiesced with drain(): it finishes the monitor
     * (end-of-run sweeps such as MemLeak's) before reading reports.
     */
    StatVector functionalFingerprint();

    /** Zero every statistics counter in the system. */
    void resetStats();

    /** The trace generator (bug injection for examples/tests).
     *  Panics on a replay-driven system, which has none. */
    TraceGenerator &generator();

    /** Replay ran dry: no record left and nothing in flight. */
    bool replayExhausted() const;

    /** Emit this shard's buffered capture records as one trace block
     *  (no-op without capture). The shard scheduler calls this at
     *  every slice barrier so captured files are byte-identical
     *  across scheduler policies and worker counts. */
    void flushCapture();

    /** First filter unit, or nullptr when unaccelerated. With
     *  fadesPerShard > 1 this is unit 0 only — use fadeGroup() /
     *  fadeStats() for whole-shard filtering state. */
    Fade *fade() { return fades_ ? &fades_->unit(0) : nullptr; }
    /** The shard's filter-unit group (nullptr when unaccelerated). */
    FadeGroup *fadeGroup() { return fades_.get(); }
    const FadeGroup *fadeGroup() const { return fades_.get(); }
    /** Filtering counters merged over all units (empty when
     *  unaccelerated). */
    FadeStats fadeStats() const
    {
        return fades_ ? fades_->stats() : FadeStats{};
    }
    Monitor *monitor() { return mon_; }
    const BoundedQueue<MonEvent> &eventQueue() const { return eq_; }
    const MonitorProcess *monitorProcess() const { return mproc_.get(); }
    Cycle now() const { return now_; }

    /** The run-grain driver, or nullptr unless Engine::RunGrain
     *  (include system/rungrain.hh to use). */
    const RunGrainDriver *runGrainDriver() const { return rg_.get(); }

    /**
     * Advance by at most @p maxCycles cycles, stopping as soon as
     * @p targetRetired app instructions have retired since the last
     * statistics reset — through the configured engine: the per-cycle
     * reference loop, or the run-grain driver.
     * Used by run()/warmup() and by the shard scheduler's bounded
     * slices (ShardRunner::runSlice).
     * @return the number of simulated cycles consumed.
     */
    std::uint64_t advance(std::uint64_t maxCycles,
                          std::uint64_t targetRetired);

  private:
    friend class RunGrainDriver;

    void tickAll();
    /** RunResult's counters since the slice start (IPCs left 0). */
    RunResult counters() const;
    /** Tick until @p instructions more retire (shared by warmup/run). */
    void runUntilRetired(std::uint64_t instructions, const char *what);

    SystemConfig cfg_;
    Monitor *mon_;
    MonitorContext ctx_;

    /** Private L2 when not sharing one with other shards. */
    std::unique_ptr<Cache> ownedL2_;
    Cache *l2_;
    Cache appL1_;
    Cache monL1_;

    std::unique_ptr<TraceGenerator> gen_;
    /** Multi-threaded process source (profile.procThreads > 0). */
    std::unique_ptr<ThreadedSource> tgen_;
    /** Trace-driven replacements/decorators of gen_ (traceIn/Out). */
    std::unique_ptr<ReplaySource> replay_;
    std::unique_ptr<CaptureSource> capture_;
    /** The application source the core fetches from: one of the four
     *  above, the capture tee outermost. */
    InstSource *appSrc_ = nullptr;
    BoundedQueue<MonEvent> eq_;
    BoundedQueue<UnfilteredEvent> ueq_;

    std::unique_ptr<FadeGroup> fades_;
    std::unique_ptr<MonitorProcess> mproc_;
    std::unique_ptr<EventProducer> producer_;

    std::unique_ptr<Core> appCore_; ///< also the single shared core
    std::unique_ptr<Core> monCore_; ///< two-core config only

    /** Run-grain driver (Engine::RunGrain only). */
    std::unique_ptr<RunGrainDriver> rg_;

    Cycle now_ = 0;
    Cycle sliceStart_ = 0;
    std::uint64_t perfectConsumed_ = 0;
};

} // namespace fade

#endif // FADE_SYSTEM_SYSTEM_HH
