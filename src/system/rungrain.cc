#include "system/rungrain.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/threads.hh"
#include "trace/tracefile.hh"

namespace fade
{

RunGrainDriver::RunGrainDriver(MonitoringSystem &sys)
    : sys_(sys),
      appCore_(sys.appCore_.get()),
      monHost_(sys.monCore_ ? sys.monCore_.get() : sys.appCore_.get()),
      fades_(sys.fades_.get()),
      producer_(sys.producer_.get()),
      mproc_(sys.mproc_.get()),
      appSrc_(sys.appSrc_)
{
    perfect_ = sys.cfg_.perfectConsumer && sys.mon_ != nullptr;
    unaccel_ = mproc_ != nullptr && fades_ == nullptr;
    monPopDelay_ = (fades_ && !sys.monCore_) ? 1 : 0;

    appT_.configure(sys.cfg_.core, appCore_->robPartition());
    if (mproc_)
        monT_.configure(sys.cfg_.core, monHost_->robPartition());

    if (sys.cfg_.eqCapacity)
        eqPopRing_.assign(sys.cfg_.eqCapacity, 0);
    if (sys.cfg_.ueqCapacity)
        ueqStartRing_.assign(sys.cfg_.ueqCapacity, 0);
    if (fades_)
        pipes_.assign(fades_->size(), UnitPipe{});
}

Cycle
RunGrainDriver::eqGate() const
{
    if (eqPopRing_.empty() || eqCount_ < eqPopRing_.size())
        return 0;
    return eqPopRing_[eqIdx_] + 1;
}

Cycle
RunGrainDriver::ueqGate() const
{
    if (ueqStartRing_.empty() || ueqCount_ < ueqStartRing_.size())
        return 0;
    return ueqStartRing_[ueqIdx_] + 1;
}

void
RunGrainDriver::recordEqPop(Cycle popAt)
{
    eqPending_.push_back(popAt);
    if (!eqPopRing_.empty()) {
        eqPopRing_[eqIdx_] = popAt;
        eqIdx_ = (eqIdx_ + 1 == eqPopRing_.size()) ? 0 : eqIdx_ + 1;
    }
    ++eqCount_;
    lastEqPop_ = popAt;
}

void
RunGrainDriver::accountEqPush(Cycle pushAt)
{
    // Modeled occupancy seen by the arriving event: every earlier
    // event whose pop lands at or after the push cycle is still
    // queued (a same-cycle pop happens later in the cycle than the
    // push), plus the event itself.
    while (!eqPending_.empty() && eqPending_.front() < pushAt)
        eqPending_.pop_front();
    sys_.eq_.accountTransit(eqPending_.size() + 1);
}

Cycle
RunGrainDriver::unitQuiesce(const UnitPipe &u) const
{
    return std::max({u.pipeClear, u.handlerClear, u.freeAt});
}

Cycle
RunGrainDriver::groupQuiesce() const
{
    Cycle q = groupFree_;
    for (const UnitPipe &u : pipes_)
        q = std::max(q, unitQuiesce(u));
    return q;
}

RunGrainDriver::HandlerSpan
RunGrainDriver::runHandler(Cycle avail)
{
    // One unbounded span is exactly one handler: the monitor process
    // pops the next event and never spans into the handler after it.
    InstSpan seq = mproc_ ? mproc_->fetchSpan(SIZE_MAX) : InstSpan{};
    panic_if(seq.empty(), "run-grain handler expected but none pending");
    HandlerSpan span;
    Cycle gate = avail + monPopDelay_;
    for (std::size_t k = 0; k < seq.count; ++k) {
        const Instruction &hi = seq.data[k];
        unsigned lat = monHost_->runGrainExecLatency(hi);
        RunGrainThread::Retire r =
            monT_.retire(hi, lat, k == 0 ? gate : 0, 0);
        if (k == 0)
            span.start = r.dispatched;
        stats_.cyclesFastForwarded += r.robWait + r.fetchWait;
        mproc_->commit(hi);
    }
    span.done = monT_.lastCommit();

    // Busy-interval union for idle accounting (handlers pipeline, so
    // spans can overlap).
    Cycle s = std::max(span.start, monBusyUntil_);
    if (span.done > s)
        busySlice_ += span.done - s;
    monBusyUntil_ = std::max(monBusyUntil_, span.done);
    ++stats_.handlers;
    return span;
}

void
RunGrainDriver::processEvent(const MonEvent &ev, Cycle commit)
{
    ++stats_.events;

    if (unaccel_) {
        // The monitor process pops the real EQ itself; its handler
        // start is the modeled pop.
        MonEvent *slot = sys_.eq_.pushSlot();
        panic_if(!slot, "event queue push past a full queue");
        *slot = ev;
        recordEqPop(runHandler(commit).start);
        return;
    }

    accountEqPush(commit);

    if (perfect_) {
        // Ideal consumer: one pop per cycle, in order.
        Cycle pop = std::max(commit, lastPerfectPop_ + 1);
        lastPerfectPop_ = pop;
        recordEqPop(pop);
        ++sys_.perfectConsumed_;
        return;
    }

    bool multi = fades_->size() > 1;
    FadeGroup::RunGrainSteered st = fades_->processEventRunGrain(ev);
    UnitPipe &u = pipes_[st.unit];
    const RunGrainEventOutcome &oc = st.outcome;

    if (oc.kind == RunGrainEventOutcome::Kind::Inst) {
        Cycle etr = std::max({commit, u.ctrl, u.freeAt, groupFree_,
                              lastEqPop_});
        Cycle ctrl = std::max(etr + 1, u.mdr);
        Cycle mdr = std::max(ctrl + 1, u.filt);
        Cycle filt = std::max(mdr + 1, u.resolve);
        Cycle resolve = filt + std::max(1u, oc.shots);
        u.ctrl = ctrl;
        u.mdr = mdr;
        u.filt = filt;
        u.resolve = resolve;
        recordEqPop(etr);
        if (!oc.software) {
            u.pipeClear = std::max(u.pipeClear, resolve);
            return;
        }
        // Software-bound: UEQ admission, then the handler. The +1 on
        // pipeClear covers the Metadata Write latch draining the cycle
        // after the filter verdict.
        Cycle uPush = std::max(resolve, ueqGate());
        u.pipeClear = std::max(u.pipeClear, resolve + 1);
        HandlerSpan h = runHandler(uPush);
        if (!ueqStartRing_.empty()) {
            ueqStartRing_[ueqIdx_] = h.start;
            ueqIdx_ = (ueqIdx_ + 1 == ueqStartRing_.size()) ? 0 : ueqIdx_ + 1;
        }
        ++ueqCount_;
        u.handlerClear = std::max(u.handlerClear, h.done);
        if (oc.serialize) // blocking FADE: filter stalls to completion
            u.freeAt = std::max(u.freeAt, h.done + 1);
        return;
    }

    if (oc.kind == RunGrainEventOutcome::Kind::Stack) {
        // Popped at the head immediately, then the unit (or, behind
        // group steering, every unit) drains before the SUU runs.
        Cycle pop = std::max({commit, u.freeAt, groupFree_, lastEqPop_});
        if (multi)
            pop = std::max(pop, groupQuiesce());
        Cycle suuStart = std::max(pop, unitQuiesce(u));
        Cycle done = suuStart + oc.suuCycles;
        stats_.cyclesStepped += oc.suuCycles;
        recordEqPop(pop);
        u.freeAt = std::max(u.freeAt, done + 1);
        if (multi)
            groupFree_ = std::max(groupFree_, done + 1);
        return;
    }

    // High-level event: always a software handler; with drain
    // semantics the unit additionally quiesces first and holds
    // filtering until the handler completes.
    Cycle pop = std::max({commit, u.freeAt, groupFree_, lastEqPop_});
    if (multi)
        pop = std::max(pop, groupQuiesce());
    Cycle uPush;
    if (oc.serialize)
        uPush = std::max(std::max(pop, unitQuiesce(u)), ueqGate());
    else
        uPush = std::max(std::max(pop, u.pipeClear), ueqGate());
    recordEqPop(pop);
    HandlerSpan h = runHandler(uPush);
    if (!ueqStartRing_.empty()) {
        ueqStartRing_[ueqIdx_] = h.start;
        ueqIdx_ = (ueqIdx_ + 1 == ueqStartRing_.size()) ? 0 : ueqIdx_ + 1;
    }
    ++ueqCount_;
    u.handlerClear = std::max(u.handlerClear, h.done);
    if (oc.serialize)
        u.freeAt = std::max(u.freeAt, h.done + 1);
    if (multi)
        groupFree_ = std::max(groupFree_, h.done + 1);
}

void
RunGrainDriver::processSpan(const Instruction *insts, std::size_t n)
{
    Monitor *mon = sys_.mon_;
    if (mon)
        mon->monitoredSpan(insts, n, verdicts_);

    ThreadStats &as = appCore_->runGrainThreadStats(0);
    std::uint64_t ff = 0;

    std::size_t s = 0;
    while (s < n) {
        // Maximal same-tid segment: within it no INV-RF thread-switch
        // update can occur, so the whole segment's events may be
        // extracted before any of them is processed.
        std::size_t e = s + 1;
        ThreadId tid = insts[s].tid;
        while (e < n && insts[e].tid == tid)
            ++e;

        // Functional: bulk event extraction for the segment.
        producer_->commitSpan(insts + s, verdicts_ + s, e - s, spanEvents_);

        // Timing: retire recurrences with each event processed at its
        // own retire point (eqGate() ordering).
        std::size_t ev = 0;
        for (std::size_t i = s; i < e; ++i) {
            bool monitored = mon && verdicts_[i];
            unsigned lat = appCore_->runGrainExecLatency(insts[i]);
            Cycle sinkGate = monitored ? eqGate() : 0;
            RunGrainThread::Retire r =
                appT_.retire(insts[i], lat, 0, sinkGate);
            as.sinkStallCycles += r.sinkWait;
            ff += r.sinkWait + r.robWait + r.fetchWait;
            if (monitored)
                processEvent(spanEvents_[ev++], r.committed);
        }
        s = e;
    }

    stats_.cyclesFastForwarded += ff;
    stats_.instructions += n;
}

std::uint64_t
RunGrainDriver::runUntil(std::uint64_t maxCycles,
                         std::uint64_t targetRetired)
{
    Cycle start = sys_.now_;
    Cycle end = start + maxCycles;
    std::uint64_t ffBefore = stats_.cyclesFastForwarded;
    std::uint64_t stepBefore = stats_.cyclesStepped;

    while (producer_->retired() < targetRetired) {
        // Catch-up: the modeled frontier already fills this window.
        if (appT_.lastCommit() >= end)
            break;
        // One span per pass, clamped to the target (possibly shorter
        // at a trace-block boundary); empty only when a replay ran dry.
        std::uint64_t want = targetRetired - producer_->retired();
        InstSpan span = appSrc_->fetchSpan(
            std::size_t(std::min<std::uint64_t>(want, kStageRun)));
        if (span.empty())
            break;
        processSpan(span.data, span.count);
    }

    Cycle frontier = appT_.lastCommit() + 1;
    if (producer_->retired() >= targetRetired)
        sys_.now_ = std::max(sys_.now_, frontier);
    else
        sys_.now_ = end;

    std::uint64_t elapsed = sys_.now_ - start;
    std::uint64_t ff = stats_.cyclesFastForwarded - ffBefore;
    std::uint64_t stepped = stats_.cyclesStepped - stepBefore;
    if (elapsed > ff + stepped)
        stats_.cyclesClosedFormed += elapsed - ff - stepped;
    return elapsed;
}

void
RunGrainDriver::onResetStats()
{
    busySlice_ = 0;
}

void
RunGrainDriver::finalizeSlice()
{
    if (!mproc_)
        return;
    std::uint64_t elapsed = sys_.now_ - sys_.sliceStart_;
    ThreadStats &ms = monHost_->runGrainThreadStats(sys_.monCore_ ? 0 : 1);
    ms.idleCycles = elapsed > busySlice_ ? elapsed - busySlice_ : 0;
}

} // namespace fade
