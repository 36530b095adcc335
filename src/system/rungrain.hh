/**
 * @file
 * Run-grain engine for one shard (Engine::RunGrain).
 *
 * The per-cycle reference engine advances every component cycle by
 * cycle. This driver abandons per-cycle stepping altogether: it
 * processes the shard *eagerly and serially* — fetch an application
 * instruction, extract its event, filter it, run its handler to
 * completion, repeat — while computing all timing with
 * closed-form recurrences over whole instruction runs
 * (cpu/core.hh:RunGrainThread) and a stage-time algebra for the FADE
 * pipeline. One instruction costs O(1) host work regardless of how
 * many simulated cycles it spans.
 *
 * Functional/timing split (docs/ARCHITECTURE.md, "Run-grain engine"):
 *
 *  - FUNCTIONAL results are produced by the same components the
 *    per-cycle engine uses, invoked in eager-serialized order: the
 *    same instruction source calls, the same EventProducer emission,
 *    Fade::processEventRunGrain (the reference gather/evaluate, the
 *    per-cycle stages' outcome functions countFiltered/forward/
 *    startStackUpdate, SUU ticked to completion), the same
 *    MonitorProcess handler construction and Monitor functional
 *    calls. Instruction stream, event stream, filter verdicts,
 *    handler counts and bug reports are bit-identical to PerCycle
 *    (MultiCoreSystem::functionalFingerprint, enforced by
 *    tests/test_pipeline.cc).
 *
 *  - TIMING is modeled: per-thread dispatch/commit recurrences, a
 *    per-unit ETR/CTRL/MDR/FILTER entry-time algebra, modeled queue
 *    occupancy and backpressure gates, and closed-form handler-thread
 *    scheduling. The model is deterministic and policy-invariant but
 *    intentionally NOT cycle-identical to PerCycle; its values are
 *    pinned by RunGrain's own golden fingerprints.
 *
 * The driver keeps absolute modeled clocks that may run ahead of the
 * system's now_: advance() processes instructions until the retirement
 * target is met or the modeled commit frontier passes the cycle
 * window, then settles now_ (catching up over later calls when the
 * frontier overshoots a bounded slice).
 */

#ifndef FADE_SYSTEM_RUNGRAIN_HH
#define FADE_SYSTEM_RUNGRAIN_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "sim/ring.hh"
#include "system/system.hh"
#include "system/topology.hh"

namespace fade
{

/** Host-side accounting of one run-grain driver (simulation-invisible).
 *  Not reset by resetStats: totals accumulate over the driver's
 *  lifetime. */
struct RunGrainDriverStats
{
    /** Application instructions retired through the closed forms. */
    std::uint64_t instructions = 0;
    /** Monitored events processed. */
    std::uint64_t events = 0;
    /** Software handlers run to completion. */
    std::uint64_t handlers = 0;
    /**
     * Decomposition of simulated cycles (docs/BENCHMARKS.md):
     *  - cyclesStepped: cycles still executed one at a time (the SUU's
     *    block-write loop is the only per-cycle machinery left).
     *  - cyclesFastForwarded: stall cycles jumped in one max() — the
     *    sum of ROB-full, fetch-redirect and commit-gate waits the
     *    recurrences computed without stepping them.
     *  - cyclesClosedFormed: everything else — elapsed simulated
     *    cycles attributed to closed-form evaluation, accumulated per
     *    advance() call as elapsed - fastForwarded - stepped (floored
     *    at 0 when modeled stalls overlap).
     */
    std::uint64_t cyclesClosedFormed = 0;
    std::uint64_t cyclesFastForwarded = 0;
    std::uint64_t cyclesStepped = 0;
};

/**
 * Drives one MonitoringSystem at run grain. Owned by the system when
 * SystemConfig::engine == Engine::RunGrain. Supports every system
 * shape: accelerated (single/multi-unit FadeGroup), unaccelerated,
 * perfect-consumer, unmonitored, two-core and SMT.
 */
class RunGrainDriver
{
  public:
    explicit RunGrainDriver(MonitoringSystem &sys);

    /**
     * Advance until @p maxCycles cycles are consumed or the producer
     * has retired @p targetRetired instructions. Instructions are
     * fetched and processed in spans of up to kStageRun, clamped to
     * the remaining target, so nothing is fetched beyond it; when the
     * target is met the clock settles on the modeled commit frontier,
     * which may overshoot the window by up to one span (documented
     * divergence from the per-cycle engines).
     * @return the number of simulated cycles consumed.
     */
    std::uint64_t runUntil(std::uint64_t maxCycles,
                           std::uint64_t targetRetired);

    /** Statistics-window hooks (called by MonitoringSystem). */
    void onResetStats();
    /** Write modeled per-slice aggregates (monitor-thread idle, core
     *  cycle counters) into the component stats endSlice() reads. */
    void finalizeSlice();

    const RunGrainDriverStats &stats() const { return stats_; }

  private:
    /** Instructions fetched per span. The span size is functionally
     *  and temporally invisible (no source produces an instruction
     *  ahead of its consumption, and the timing recurrences are
     *  per-instruction); it only sets scratch sizing. 64 keeps the
     *  whole span working set (instructions, verdicts, extracted
     *  events) L1-resident. */
    static constexpr std::size_t kStageRun = 64;

    /** Per-filter-unit modeled pipeline state (absolute cycles). */
    struct UnitPipe
    {
        /** Stage entry time of the unit's most recent event. An event
         *  leaves a stage the cycle its successor stage entry happens,
         *  so each field doubles as "when the stage frees". */
        Cycle ctrl = 0;
        Cycle mdr = 0;
        Cycle filt = 0;
        Cycle resolve = 0;
        /** All pipeline latches (incl. MW) clear of past events. */
        Cycle pipeClear = 0;
        /** Last software handler of this unit completes. */
        Cycle handlerClear = 0;
        /** Front end serialized (SUU / drain / blocking) until then. */
        Cycle freeAt = 0;
    };

    /**
     * Process a span of @p n fetched instructions. Verdicts are
     * decided for the whole span up front (monitoredSpan), events are
     * extracted in bulk per same-tid segment (commitSpan into the flat
     * event buffer), and the timing recurrences then run over the span
     * with each event processed at its retire point (eqGate() for a
     * monitored instruction must see the modeled pops of every earlier
     * event, and INV-RF thread switches must stay ordered against
     * event processing, hence the tid segmentation).
     */
    void processSpan(const Instruction *insts, std::size_t n);

    /** One produced event, retired at @p commit: through the
     *  FadeGroup (accelerated), the ideal consumer (perfect), or the
     *  real EQ and its handler (unaccelerated). */
    void processEvent(const MonEvent &ev, Cycle commit);

    /** Run the pending software handler to completion on the monitor
     *  thread. @p avail is the cycle its event becomes visible to the
     *  monitor process. @return {firstDispatch, lastCommit}. */
    struct HandlerSpan
    {
        Cycle start = 0;
        Cycle done = 0;
    };
    HandlerSpan runHandler(Cycle avail);

    /** Commit gate from event-queue backpressure for the next
     *  monitored event (0 when the queue cannot refuse). */
    Cycle eqGate() const;
    /** Unfiltered-queue admission gate for the next software event. */
    Cycle ueqGate() const;
    /** Record the modeled EQ pop of the event just admitted. */
    void recordEqPop(Cycle popAt);
    /** Modeled EQ occupancy sample for a push at @p pushAt. */
    void accountEqPush(Cycle pushAt);

    Cycle unitQuiesce(const UnitPipe &u) const;
    Cycle groupQuiesce() const;

    MonitoringSystem &sys_;
    Core *appCore_;
    /** Core hosting the monitor thread (monCore_ or the SMT core). */
    Core *monHost_;
    FadeGroup *fades_;
    EventProducer *producer_;
    MonitorProcess *mproc_;
    InstSource *appSrc_;

    bool perfect_ = false;
    /** Monitor process consumes the raw EQ (unaccelerated). */
    bool unaccel_ = false;
    /** Monitor thread shares the application core (SMT): queue pushes
     *  become visible to it one cycle later than on a dedicated core
     *  ticked after FADE. */
    unsigned monPopDelay_ = 0;

    RunGrainThread appT_;
    RunGrainThread monT_;

    /** Modeled EQ: pop times of events still queued in modeled time. */
    RingDeque<Cycle> eqPending_;
    /** Pop times of the last eqCapacity events (backpressure ring). */
    std::vector<Cycle> eqPopRing_;
    std::uint64_t eqCount_ = 0;
    /** eqCount_ mod eqPopRing_.size(), maintained incrementally so the
     *  per-event gate/record pair never divides. */
    std::size_t eqIdx_ = 0;
    /** Handler start (UEQ pop) times of the last ueqCapacity software
     *  events (admission ring). */
    std::vector<Cycle> ueqStartRing_;
    std::uint64_t ueqCount_ = 0;
    /** ueqCount_ mod ueqStartRing_.size(), maintained incrementally. */
    std::size_t ueqIdx_ = 0;
    Cycle lastEqPop_ = 0;
    Cycle lastPerfectPop_ = 0;

    std::vector<UnitPipe> pipes_;
    /** Group-serialized steering gate (multi-unit groups). */
    Cycle groupFree_ = 0;

    /** Span-path scratch: per-instruction verdicts and the bulk-
     *  extracted events of the current span (≤ kStageRun each). */
    std::uint8_t verdicts_[kStageRun];
    MonEvent spanEvents_[kStageRun];

    /** Monitor-thread busy-interval union (idle accounting). */
    Cycle monBusyUntil_ = 0;
    std::uint64_t busySlice_ = 0;

    RunGrainDriverStats stats_;
};

} // namespace fade

#endif // FADE_SYSTEM_RUNGRAIN_HH
