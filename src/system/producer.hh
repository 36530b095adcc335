/**
 * @file
 * Producer-side event extraction (the "event producer" of Fig. 1). As
 * monitored instructions retire on the application core, events are
 * built and enqueued into the event queue; unmonitored instructions are
 * eliminated at the source. A full event queue stalls retirement
 * (backpressure, Section 3.2).
 */

#ifndef FADE_SYSTEM_PRODUCER_HH
#define FADE_SYSTEM_PRODUCER_HH

#include <cstdint>

#include "cpu/source.hh"
#include "isa/event.hh"
#include "monitor/monitor.hh"
#include "sim/queue.hh"
#include "system/topology.hh"

namespace fade
{

/** Retirement-side event extraction for the application thread. */
class EventProducer : public CommitSink
{
  public:
    /**
     * @param mon    event-selection policy (null = unmonitored baseline)
     * @param eq     event queue (null = unmonitored baseline)
     * @param fades  filter-unit group whose INV RFs see thread switches
     * @param shard  home shard tag stamped into every produced event
     */
    EventProducer(Monitor *mon, BoundedQueue<MonEvent> *eq,
                  FadeGroup *fades, std::uint8_t shard = 0)
        : mon_(mon), eq_(eq), fades_(fades), shard_(shard)
    {}

    /**
     * Retire @p inst, building its event in the queue when it is
     * monitored: one Monitor::monitored() query per retirement. A
     * monitored instruction is refused while paused or while the
     * queue is full.
     */
    bool
    commit(const Instruction &inst) override
    {
        if (!mon_ || !eq_) {
            ++retired_;
            return true;
        }
        bool monitored = mon_->monitored(inst);
        if (monitored && (paused_ || eq_->full()))
            return false;
        ++retired_;
        produce(inst, monitored);
        return true;
    }

    /** Stall monitored retirement (used to drain the monitoring side). */
    void pause(bool p) { paused_ = p; }

    /**
     * Bulk span extraction (the run-grain engine): retire @p n
     * instructions at once, with verdicts @p mv already decided
     * (Monitor::monitoredSpan), building the events of every monitored
     * one into @p out instead of the bound queue. Returns the number
     * of events written. Functionally identical to n accepted commit()
     * calls — same retired/produced accounting, same seq numbering,
     * same per-instruction thread-switch tracking — except that the
     * events land in the caller's flat buffer: the caller owns the
     * queue (the run-grain driver drives the architectural EQ
     * statistics from modeled time, or pushes each event into the EQ
     * for an unaccelerated monitor process) and must process the
     * events in order. Callers segment spans at thread switches when
     * INV-RF updates must stay ordered against event processing
     * (system/rungrain.cc does).
     */
    std::size_t
    commitSpan(const Instruction *insts, const std::uint8_t *mv,
               std::size_t n, MonEvent *out)
    {
        retired_ += n;
        if (!mon_ || !eq_)
            return 0;
        std::size_t ev = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Instruction &inst = insts[i];
            noteTid(inst);
            if (!mv[i])
                continue;
            MonEvent &slot = out[ev++];
            if (inst.isStackUpdate())
                slot = makeStackEvent(inst, seq_);
            else if (inst.cls == InstClass::HighLevel)
                slot = makeHighLevelEvent(inst, seq_);
            else
                slot = makeInstEvent(inst, seq_);
            slot.shard = shard_;
            ++seq_;
            ++produced_;
        }
        return ev;
    }

    std::uint64_t retired() const { return retired_; }
    std::uint64_t produced() const { return produced_; }

    void
    resetStats()
    {
        retired_ = 0;
        produced_ = 0;
    }

  private:
    /** Thread-switch tracking for one retirement. */
    void
    noteTid(const Instruction &inst)
    {
        if (seenTid_ && inst.tid != lastTid_) {
            // Context switch: the monitor updates its current-thread
            // invariant register — in every filter unit, since the
            // group steers the new thread's events across all of them.
            if (fades_)
                for (unsigned u = 0; u < fades_->size(); ++u)
                    mon_->onThreadSwitch(inst.tid,
                                         &fades_->unit(u).invRf());
            else
                mon_->onThreadSwitch(inst.tid, nullptr);
        }
        lastTid_ = inst.tid;
        seenTid_ = true;
    }

    /** Thread-switch tracking + event emission for one retirement
     *  (the monitored verdict is already decided). */
    void
    produce(const Instruction &inst, bool monitored)
    {
        noteTid(inst);

        if (!monitored)
            return;

        // Build the event in place in the queue slot (accounting is
        // identical to push(); see BoundedQueue::pushSlot).
        MonEvent *slot = eq_->pushSlot();
        panic_if(!slot, "event queue push past a full queue");
        if (inst.isStackUpdate())
            *slot = makeStackEvent(inst, seq_);
        else if (inst.cls == InstClass::HighLevel)
            *slot = makeHighLevelEvent(inst, seq_);
        else
            *slot = makeInstEvent(inst, seq_);
        slot->shard = shard_;
        ++seq_;
        ++produced_;
    }

    Monitor *mon_;
    BoundedQueue<MonEvent> *eq_;
    FadeGroup *fades_;
    std::uint8_t shard_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t produced_ = 0;
    ThreadId lastTid_ = 0;
    bool seenTid_ = false;
    bool paused_ = false;
};

} // namespace fade

#endif // FADE_SYSTEM_PRODUCER_HH
