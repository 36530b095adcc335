/**
 * @file
 * FADE: the Filtering Accelerator for Decoupled Event processing — the
 * paper's primary contribution. Combines the Filtering Unit pipeline
 * (Fig. 5: Event Table Read, Control, Metadata Read, Filter, plus the
 * Metadata Write stage for Non-Blocking filtering), the Stack-Update
 * Unit, the MD cache with its M-TLB, the filter store queue, and the
 * invariant/metadata register files.
 *
 * FADE dequeues one event per cycle from the event queue, evaluates the
 * programmable filtering rules, and either retires the event (filtered)
 * or forwards it to the unfiltered event queue for software processing.
 * In blocking mode the pipeline stalls from any unfiltered event until
 * its handler completes; in Non-Blocking mode the MD update logic
 * commits the critical metadata in hardware and filtering continues.
 */

#ifndef FADE_CORE_FADE_HH
#define FADE_CORE_FADE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "core/event_table.hh"
#include "core/filter_logic.hh"
#include "core/fsq.hh"
#include "core/md_update.hh"
#include "core/regfiles.hh"
#include "core/suu.hh"
#include "isa/event.hh"
#include "mem/mdcache.hh"
#include "monitor/context.hh"
#include "sim/queue.hh"
#include "sim/stats.hh"

namespace fade
{

/** Configuration of one FADE instance. */
struct FadeParams
{
    /** Non-Blocking filtering (Section 5); false = baseline FADE. */
    bool nonBlocking = true;
    /** Filter store queue capacity. */
    std::size_t fsqEntries = 16;
    /** MD cache / M-TLB geometry. */
    MdCacheParams mdCache;
    /**
     * Drain in-flight work around high-level events (malloc / free /
     * taint source) and hold filtering until their handler completes.
     * Required for soundness: a taint source's bulk metadata update
     * must be visible before subsequent dependent events are filtered.
     * High-level events are rare (Section 3.3), so the cost is small;
     * the flag exists for the ablation study.
     */
    bool drainOnHighLevel = true;
};

/** Counters and distributions collected by one FADE instance. */
struct FadeStats
{
    std::uint64_t instEvents = 0;
    std::uint64_t filtered = 0;       ///< fully filtered (no software)
    std::uint64_t filteredCC = 0;     ///< attributed to clean checks
    std::uint64_t filteredRU = 0;     ///< attributed to redundant updates
    std::uint64_t partialPass = 0;    ///< partial check passed (short PC)
    std::uint64_t partialFail = 0;    ///< partial check failed (long PC)
    std::uint64_t unfiltered = 0;     ///< full software handler needed
    std::uint64_t stackEvents = 0;
    std::uint64_t highLevelEvents = 0;
    std::uint64_t shots = 0;          ///< filter-stage evaluation cycles
    std::uint64_t comparisons = 0;    ///< comparison blocks engaged

    /** Events dequeued whose shard tag differs from this instance's
     *  shard (must stay 0; nonzero means broken shard routing). */
    std::uint64_t crossShardEvents = 0;

    std::uint64_t stallUeqFull = 0;   ///< cycles stalled: UEQ backpressure
    std::uint64_t stallBlocking = 0;  ///< cycles stalled: blocking mode
    std::uint64_t stallDrain = 0;     ///< cycles waiting for drains
    std::uint64_t stallMdRead = 0;    ///< extra MDR cycles (MD misses)
    std::uint64_t stallFsqFull = 0;   ///< cycles stalled: FSQ full
    std::uint64_t suuCycles = 0;      ///< cycles the SUU owned the unit
    std::uint64_t busyCycles = 0;
    std::uint64_t idleCycles = 0;

    /** Distance (in filterable events) between software-bound events. */
    Log2Histogram unfDistance;
    /** Unfiltered burst sizes under the paper's <=16-distance rule. */
    Log2Histogram unfBurst;

    /** Per-event-ID outcome counters (analysis / debugging). */
    std::array<std::uint64_t, numCanonicalEvents> filteredById{};
    std::array<std::uint64_t, numCanonicalEvents> softwareById{};

    /**
     * Fraction of instruction-event handlers elided by hardware: fully
     * filtered events plus partial-filtering events whose check passed
     * (the full handler is replaced by the short update handler).
     */
    double
    filteringRatio() const
    {
        if (instEvents == 0)
            return 0.0;
        return static_cast<double>(filtered + partialPass) / instEvents;
    }

    /**
     * Every member, once, in fingerprint order: f(name, &member, kind).
     * The five stall counters and busy/idle cycles are Timing; every
     * other member, suuCycles and both unfiltered histograms included,
     * is Functional (docs/ARCHITECTURE.md, "Run-grain engine").
     */
    template <class F>
    static void
    forEachField(F &&f)
    {
        constexpr StatKind fn = StatKind::Functional;
        constexpr StatKind tm = StatKind::Timing;
        f("inst_events", &FadeStats::instEvents, fn);
        f("filtered", &FadeStats::filtered, fn);
        f("filtered_cc", &FadeStats::filteredCC, fn);
        f("filtered_ru", &FadeStats::filteredRU, fn);
        f("partial_pass", &FadeStats::partialPass, fn);
        f("partial_fail", &FadeStats::partialFail, fn);
        f("unfiltered", &FadeStats::unfiltered, fn);
        f("stack_events", &FadeStats::stackEvents, fn);
        f("high_level_events", &FadeStats::highLevelEvents, fn);
        f("shots", &FadeStats::shots, fn);
        f("comparisons", &FadeStats::comparisons, fn);
        f("cross_shard_events", &FadeStats::crossShardEvents, fn);
        f("stall_ueq_full", &FadeStats::stallUeqFull, tm);
        f("stall_blocking", &FadeStats::stallBlocking, tm);
        f("stall_drain", &FadeStats::stallDrain, tm);
        f("stall_md_read", &FadeStats::stallMdRead, tm);
        f("stall_fsq_full", &FadeStats::stallFsqFull, tm);
        f("suu_cycles", &FadeStats::suuCycles, fn);
        f("busy_cycles", &FadeStats::busyCycles, tm);
        f("idle_cycles", &FadeStats::idleCycles, tm);
        f("unf_distance", &FadeStats::unfDistance, fn);
        f("unf_burst", &FadeStats::unfBurst, fn);
        f("filtered_by_id", &FadeStats::filteredById, fn);
        f("software_by_id", &FadeStats::softwareById, fn);
    }

    /** Accumulate another instance's counters (multi-core rollups). */
    void merge(const FadeStats &o) { mergeFields(*this, o); }
};

// A member missing from forEachField would escape merge() and every
// fingerprint; this trips on the CI platform when the struct changes.
#if defined(__linux__) && defined(__x86_64__)
static_assert(sizeof(FadeStats) == 368,
              "FadeStats changed: list the member in "
              "FadeStats::forEachField, then update this size");
#endif

/**
 * What the run-grain engine (system/rungrain.hh) needs to know about
 * one event it just processed functionally: its class, how long the
 * Filter stage holds it (multi-shot evaluations), how long the SUU
 * owns the unit (stack updates), and whether a software handler was
 * forwarded. The engine folds these into its closed-form filter
 * pipeline algebra; every functional effect (verdict counters, UEQ
 * forward, metadata update, SUU writes) has already been applied.
 */
struct RunGrainEventOutcome
{
    enum class Kind : std::uint8_t { Inst, Stack, HighLevel };
    Kind kind = Kind::Inst;
    /** Filter-stage occupancy in cycles (instruction events). */
    unsigned shots = 0;
    /** Cycles the SUU owned the unit (stack updates). */
    unsigned suuCycles = 0;
    /** Event was forwarded to the UEQ for software processing. */
    bool software = false;
    /** Filtering must wait for the handler / the SUU before the next
     *  event (blocking mode, stack updates, drained high-level
     *  events). */
    bool serialize = false;
};

/**
 * The accelerator. The owning system binds the two decoupling queues,
 * ticks FADE once per cycle, and reports software handler completions
 * via handlerDone().
 */
class Fade
{
  public:
    /**
     * @param p    configuration
     * @param ctx  canonical metadata state shared with the monitor
     * @param l2   next memory level behind the MD cache (may be null)
     */
    Fade(const FadeParams &p, MonitorContext &ctx, Cache *l2);

    /** Non-copyable/movable: the stage pointers (at_) alias the
     *  instance's own latch storage. */
    Fade(const Fade &) = delete;
    Fade &operator=(const Fade &) = delete;

    /** Attach the event queue and the unfiltered event queue. */
    void bind(BoundedQueue<MonEvent> *eq,
              BoundedQueue<UnfilteredEvent> *ueq);

    /** Programming interfaces (memory-mapped in hardware). */
    EventTable &eventTable() { return table_; }
    InvRegFile &invRf() { return inv_; }
    MdCache &mdCache() { return mdc_; }
    const FilterStoreQueue &fsq() const { return fsq_; }
    StackUpdateUnit &suu() { return suu_; }
    const FadeParams &params() const { return params_; }

    /** Home shard of this instance (sharded multi-core systems). */
    void setShard(std::uint8_t s) { shardId_ = s; }
    std::uint8_t shard() const { return shardId_; }

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Run-grain engine (Engine::RunGrain): process @p ev functionally,
     * end to end, without ticking the pipeline — the eager-serialized
     * counterpart of one event's full traversal. It runs the same
     * table lookup, metadata gather and filter evaluation as the
     * stages, and the same outcome functions (countFiltered, forward,
     * startStackUpdate) for the verdict counters, the UEQ forward and
     * the SUU; the NB metadata update goes straight to the FSQ or the
     * register metadata instead of through the MW latch, and the SUU
     * is ticked to completion. Returns the stage-time inputs for the
     * engine's timing algebra. Legal only with the pipeline latches
     * empty and at most one software handler in flight, which the
     * eager-serialized driver guarantees; the caller runs the
     * forwarded handler to completion (handlerDone()) before the next
     * call, so metadata gathers observe exactly the values the
     * per-cycle forwarding paths (MW latch, FSQ) would forward.
     */
    RunGrainEventOutcome processEventRunGrain(const MonEvent &ev);

    /** Software completed the handler of the event with @p seq. */
    void handlerDone(std::uint64_t seq);

    /** Anything in flight inside the accelerator? */
    bool busy() const;

    /** No in-flight events and no outstanding software handlers. */
    bool quiesced() const;

    std::uint64_t outstandingHandlers() const { return outstanding_; }

    /** Close out the trailing unfiltered burst at end of measurement. */
    void finalizeBursts();

    /**
     * Invoked when the SUU begins processing a stack-update event (the
     * unit has fully drained at this point). The owning system uses it
     * to apply the monitor's non-critical bookkeeping for the frame
     * (the critical metadata itself is written by the SUU hardware).
     */
    std::function<void(const MonEvent &)> onStackUpdate;

    const FadeStats &stats() const { return stats_; }
    void resetStats();

  private:
    /** One pipeline latch. */
    struct PipeSlot
    {
        bool valid = false;
        MonEvent ev;
        /** MDR: cycle the metadata read completes. */
        Cycle readyAt = 0;
        /** FILTER: remaining multi-shot cycles. */
        unsigned shotsLeft = 0;
        /** FILTER: evaluation result (computed on stage entry). */
        FilterOutcome out;
        OperandMd md;
        /** MW: pending non-blocking update. */
        std::optional<std::uint8_t> nbVal;
        bool nbDestIsMem = false;
    };

    /**
     * Stage names of the filtering unit pipeline (Fig. 5). Latches are
     * index-latched: each stage holds an index into slots_, and a
     * pipeline step advances an event by swapping two stage indices
     * instead of copying the latch payload forward (the vacated stage
     * inherits the invalid slot the destination stage held). The
     * reference transition "dst = src; src.valid = false" is exactly an
     * index swap whenever the destination slot is invalid — which every
     * advance guarantees before it fires.
     */
    enum StageIdx : std::uint8_t
    {
        SEtr = 0,  ///< Event Table Read
        SCtrl = 1, ///< Control
        SMdr = 2,  ///< Metadata Read
        SFilt = 3, ///< Filter
        SMw = 4,   ///< Metadata Write (Non-Blocking mode)
        numStages = 5,
    };

    PipeSlot &stage(StageIdx s) { return *at_[s]; }
    const PipeSlot &stage(StageIdx s) const { return *at_[s]; }

    /** Move the (valid) event in @p from into the (invalid) @p to
     *  latch: the index-latched equivalent of "to = from; from.valid =
     *  false". Occupancy is untouched — the event only changed stages. */
    void
    shift(StageIdx from, StageIdx to)
    {
        std::swap(at_[from], at_[to]);
    }

    /** An event entered the pipeline (a latch turned valid). */
    void
    latchFill(PipeSlot &s)
    {
        s.valid = true;
        ++pipeOcc_;
    }

    /** An event left the pipeline (a latch turned invalid). */
    void
    latchDrain(PipeSlot &s)
    {
        s.valid = false;
        --pipeOcc_;
    }

    /** Front-end state for stack updates and high-level events. */
    enum class FrontState : std::uint8_t
    {
        Normal,
        WaitDrainStack, ///< draining for a pending stack update
        WaitDrainHigh,  ///< draining for a pending high-level event
        WaitHighDone,   ///< waiting for the high-level handler to finish
        SuuActive,      ///< SUU owns the unit
    };

    bool pipelineEmpty() const;
    /** Dequeue the event-queue head into @p dst, checking its shard
     *  tag (single copy; accounting identical to pop()). */
    void popEventInto(MonEvent &dst);
    OperandMd gatherMd(const EventTableEntry &e, const MonEvent &ev) const;
    unsigned mdReadLatency(const EventTableEntry &e, const MonEvent &ev);

    // Event outcomes, one implementation for both engines: the
    // per-cycle stages call them once their gates (multi-shot wait,
    // UEQ backpressure, drains) open; processEventRunGrain calls them
    // directly.

    /** Count @p ev as fully filtered under the verdict @p out. */
    void countFiltered(const MonEvent &ev, const FilterOutcome &out);
    /** Push @p ev to the UEQ for its software handler and count it:
     *  an instruction event under the verdict @p out, or a high-level
     *  event when @p out is null. The UEQ must have room. */
    void forward(const MonEvent &ev, const FilterOutcome *out);
    /** Hand the stack update @p ev to the monitor's bookkeeping
     *  (onStackUpdate) and start the SUU on its frame. */
    void startStackUpdate(const MonEvent &ev);

    bool advanceMw();
    void advanceFilter();
    void advanceMdr(Cycle now);
    void advanceCtrl();
    void advanceEtr();
    void frontEnd();

    FadeParams params_;
    MonitorContext &ctx_;

    EventTable table_;
    InvRegFile inv_;
    MdCache mdc_;
    FilterLogic logic_;
    FilterStoreQueue fsq_;
    StackUpdateUnit suu_;

    BoundedQueue<MonEvent> *eq_ = nullptr;
    BoundedQueue<UnfilteredEvent> *ueq_ = nullptr;

    /** Latch storage + per-stage slot pointers (see StageIdx). */
    std::array<PipeSlot, numStages> slots_;
    std::array<PipeSlot *, numStages> at_{&slots_[0], &slots_[1],
                                          &slots_[2], &slots_[3],
                                          &slots_[4]};
    /** Number of valid latches (kept in lockstep with the valid flags
     *  by latchFill/latchDrain: pipelineEmpty is one compare). */
    unsigned pipeOcc_ = 0;

    FrontState front_ = FrontState::Normal;
    MonEvent pendingFront_;
    std::uint8_t shardId_ = 0;

    bool blocked_ = false;
    std::uint64_t blockedSeq_ = 0;
    std::uint64_t outstanding_ = 0;

    /** Filterable events since the last software-bound event. */
    std::uint64_t sinceUnfiltered_ = 0;
    std::uint64_t curBurst_ = 0;
    bool haveBurst_ = false;

    FadeStats stats_;
};

} // namespace fade

#endif // FADE_CORE_FADE_HH
