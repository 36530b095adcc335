/**
 * @file
 * Interfaces between the core timing models and the components that
 * supply instructions (workload generator, monitor handler engine) and
 * observe retirement (event extraction, handler completion).
 */

#ifndef FADE_CPU_SOURCE_HH
#define FADE_CPU_SOURCE_HH

#include "isa/instruction.hh"

namespace fade
{

/**
 * A contiguous run of already-staged instructions handed out by
 * InstSource::fetchSpan(). The storage belongs to the source and stays
 * valid until the next fetch/stage call on it; consumers must finish
 * (or copy) the span before touching the source again.
 */
struct InstSpan
{
    const Instruction *data = nullptr;
    std::size_t count = 0;

    bool empty() const { return count == 0; }
    const Instruction *begin() const { return data; }
    const Instruction *end() const { return data + count; }
};

/** Supplies the dynamic instruction stream of one hardware thread. */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /** An instruction is available for fetch this cycle. */
    virtual bool available() = 0;

    /** Fetch the next instruction; call only when available(). */
    virtual Instruction fetch() = 0;

    /**
     * Run-replay fast path: when the source holds a prefetched run of
     * instructions (a monitor handler sequence), consume and return a
     * pointer to the next one — valid until the next call on this
     * source. Returns nullptr, with NO side effects, when no prefetched
     * instruction exists; the caller must then fall back to the
     * available()/fetch() protocol. A non-null return is exactly
     * equivalent to available() (true, side-effect free here by
     * definition) followed by fetch() — cores use it to replay handler
     * runs without the per-instruction virtual round-trip.
     */
    virtual const Instruction *fetchNext() { return nullptr; }

    /**
     * Ask the source to pre-produce up to @p n upcoming instructions
     * for run service through fetchNext(), without changing the stream:
     * staging must be bit-identical to on-demand generation (same
     * instructions, same internal draw order). Sources that cannot
     * stage return 0 — purely an optimization hint; the consumed
     * stream is identical either way. The run-grain engine
     * (system/rungrain.hh) stages one batch at a time and drains it
     * fully before returning control, so external stream edits (e.g.
     * TraceGenerator::injectBug) never interleave with staged work.
     */
    virtual std::size_t
    stageRun(std::size_t n)
    {
        (void)n;
        return 0;
    }

    /**
     * Consume up to @p max staged instructions as one contiguous span —
     * the bulk generalization of fetchNext(). A returned span of count
     * k is exactly equivalent to k successive fetchNext() calls (same
     * instructions, same side effects); an empty span means nothing is
     * staged contiguously and the caller falls back to fetchNext()/
     * fetch(). Span storage is owned by the source and is valid until
     * the next fetch or stage call, so batch consumers (the run-grain
     * driver) process a whole span without a per-instruction virtual
     * round-trip. Sources may return fewer than @p max instructions
     * (e.g. at a trace-block boundary); callers simply loop.
     */
    virtual InstSpan
    fetchSpan(std::size_t max)
    {
        (void)max;
        return {};
    }
};

/** Observes in-order retirement of one hardware thread. */
class CommitSink
{
  public:
    virtual ~CommitSink() = default;

    /**
     * May @p inst commit this cycle? Producers refuse when the event
     * queue has no room for the instruction's event (backpressure
     * stalls retirement, Section 3.2).
     */
    virtual bool canCommit(const Instruction &inst)
    {
        (void)inst;
        return true;
    }

    /** Static property: canCommit() is unconditionally true (the
     *  monitor handler engine never refuses retirement). Cores cache it
     *  and skip the per-instruction canCommit round-trip. */
    virtual bool alwaysCommits() const { return false; }

    /** @p inst committed (retired in order). */
    virtual void onCommit(const Instruction &inst) { (void)inst; }

    /**
     * Fused commit round-trip: canCommit() and, when allowed,
     * onCommit() in a single virtual dispatch (the per-retirement fast
     * path). Overrides must behave exactly like the default
     * composition.
     * @return false (and no effects) when the commit was refused.
     */
    virtual bool
    commitIfAllowed(const Instruction &inst)
    {
        if (!canCommit(inst))
            return false;
        onCommit(inst);
        return true;
    }
};

} // namespace fade

#endif // FADE_CPU_SOURCE_HH
