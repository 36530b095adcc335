/**
 * @file
 * The monitor software process: the unfiltered event consumer of Fig. 1.
 * Runs on a core (or hardware thread) as an instruction source/sink
 * pair: it pops events from its input queue, supplies the handler's
 * dynamic instruction sequence to the core's timing model, and — when
 * the handler's last instruction commits — applies the handler's
 * functional effects and notifies FADE of the completion (releasing FSQ
 * entries / unblocking the baseline pipeline).
 *
 * In accelerated systems the input is the unfiltered event queue fed by
 * FADE; in unaccelerated systems it is the event queue itself, and each
 * handler additionally includes the check path FADE would have elided.
 */

#ifndef FADE_MONITOR_PROCESS_HH
#define FADE_MONITOR_PROCESS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/source.hh"
#include "isa/event.hh"
#include "monitor/monitor.hh"
#include "sim/queue.hh"
#include "sim/ring.hh"
#include "system/topology.hh"

namespace fade
{

/** Statistics of the monitor software process. */
struct MonitorProcessStats
{
    std::uint64_t handlers = 0;
    std::uint64_t instructions = 0;
    /** Committed handler instructions by handler class (Fig. 4(a)). */
    std::array<std::uint64_t, 4> instrByClass{};
};

/**
 * Software monitor execution engine. Implements InstSource (handler
 * instruction supply) and CommitSink (handler completion detection) for
 * the monitor hardware thread.
 */
class MonitorProcess : public InstSource, public CommitSink
{
  public:
    /**
     * @param m      the lifeguard
     * @param ctx    canonical metadata state
     * @param fades  filter-unit group to notify of completions (each
     *               completion routes to the unit that forwarded the
     *               event; may be null)
     * @param ueq    unfiltered event queue (accelerated systems)
     * @param eq     raw event queue (unaccelerated systems)
     *
     * Exactly one of @p ueq / @p eq must be non-null.
     */
    MonitorProcess(Monitor &m, MonitorContext &ctx, FadeGroup *fades,
                   BoundedQueue<UnfilteredEvent> *ueq,
                   BoundedQueue<MonEvent> *eq);

    /**
     * Instructions left in the current handler, at most @p n. Once the
     * current handler is fully handed out, this pops the next event
     * and builds its handler: the per-cycle core's idle probe and
     * dispatch call it at exactly the points where that pop is
     * visible in timing.
     */
    std::size_t stageRun(std::size_t n) override;

    /** Hand out up to @p max instructions of the current handler in
     *  place (starting the next handler as stageRun() does); a span
     *  never crosses into the next handler. */
    InstSpan fetchSpan(std::size_t max) override;

    /** Count a committed handler instruction; the handler's last one
     *  applies its functional effects. Never refuses. */
    bool commit(const Instruction &inst) override;

    /** No handler in flight and the input queue is empty. */
    bool idle() const;

    const MonitorProcessStats &stats() const { return stats_; }
    void resetStats() { stats_ = MonitorProcessStats{}; }

  private:
    /** Pop the next event and build its handler sequence. */
    bool startNextHandler();

    struct PendingHandler
    {
        UnfilteredEvent u;
        std::uint64_t remaining = 0; ///< instructions not yet committed
        HandlerClass cls = HandlerClass::Update;
    };

    Monitor &mon_;
    MonitorContext &ctx_;
    FadeGroup *fades_;
    BoundedQueue<UnfilteredEvent> *ueq_;
    BoundedQueue<MonEvent> *eq_;

    std::vector<Instruction> seq_;
    std::size_t fetchIdx_ = 0;
    /** Handlers whose instructions are (partly) in flight. */
    RingDeque<PendingHandler> pending_;

    MonitorProcessStats stats_;
};

} // namespace fade

#endif // FADE_MONITOR_PROCESS_HH
