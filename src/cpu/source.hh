/**
 * @file
 * Interfaces between the core timing models and the components that
 * supply instructions (workload generator, trace replay, monitor
 * handler engine) and observe retirement (event extraction, handler
 * completion).
 *
 * One call each way. A consumer asks stageRun(n) how many instructions
 * the next fetchSpan(n) would serve, and fetchSpan(max) consumes them;
 * the per-cycle core dispatches with fetchSpan(1), the run-grain driver
 * with whole spans. A retiring instruction goes to CommitSink::commit(),
 * which either retires it or refuses it with no effects. No source
 * produces an instruction ahead of its consumption, so stream edits
 * between calls (TraceGenerator::injectBug) land at the consumption
 * point whatever span sizes the consumer uses.
 */

#ifndef FADE_CPU_SOURCE_HH
#define FADE_CPU_SOURCE_HH

#include <cstddef>

#include "isa/instruction.hh"

namespace fade
{

/**
 * A contiguous run of instructions handed out by
 * InstSource::fetchSpan(). The storage belongs to the source and stays
 * valid until the next call on it; consumers must finish (or copy) the
 * span before touching the source again.
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

    /**
     * How many of the next @p n instructions the next fetchSpan(n)
     * serves; 0 = nothing now. May prepare (decode a trace block,
     * build the next monitor handler) but never produces an
     * instruction ahead of consumption.
     */
    virtual std::size_t stageRun(std::size_t n) = 0;

    /**
     * Consume up to @p max instructions as one contiguous span. Empty
     * iff stageRun() would return 0; may be short at a trace-block or
     * handler boundary (callers loop). Valid until the next call.
     */
    virtual InstSpan fetchSpan(std::size_t max) = 0;
};

/** Observes in-order retirement of one hardware thread. */
class CommitSink
{
  public:
    virtual ~CommitSink() = default;

    /**
     * Retire @p inst, or refuse it: producers refuse when the event
     * queue has no room for the instruction's event (backpressure
     * stalls retirement, Section 3.2).
     * @return false (and no effects) when the commit was refused.
     */
    virtual bool commit(const Instruction &inst) = 0;
};

} // namespace fade

#endif // FADE_CPU_SOURCE_HH
