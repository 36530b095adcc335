#include "core/fade.hh"

namespace fade
{

Fade::Fade(const FadeParams &p, MonitorContext &ctx, Cache *l2)
    : params_(p),
      ctx_(ctx),
      mdc_(p.mdCache, l2),
      logic_(inv_),
      fsq_(p.fsqEntries),
      suu_(mdc_, ctx.shadow, inv_)
{
}

void
Fade::bind(BoundedQueue<MonEvent> *eq, BoundedQueue<UnfilteredEvent> *ueq)
{
    eq_ = eq;
    ueq_ = ueq;
}

bool
Fade::pipelineEmpty() const
{
    return pipeOcc_ == 0;
}

bool
Fade::busy() const
{
    return !pipelineEmpty() || front_ != FrontState::Normal || blocked_ ||
           suu_.busy();
}

bool
Fade::quiesced() const
{
    return !busy() && outstanding_ == 0 && (!eq_ || eq_->empty());
}

void
Fade::popEventInto(MonEvent &dst)
{
    // One copy straight into the destination latch; popRun(1) retires
    // the head with exactly pop()'s accounting.
    const MonEvent &ev = eq_->front();
    if (ev.shard != shardId_)
        ++stats_.crossShardEvents;
    dst = ev;
    eq_->popRun(1);
}

OperandMd
Fade::gatherMd(const EventTableEntry &e, const MonEvent &ev) const
{
    const PipeSlot &mw = stage(SMw);
    OperandMd md;
    auto memRead = [&]() -> std::uint8_t {
        Addr a = mdAddrOf(ev.appAddr);
        if (params_.nonBlocking) {
            // Back-to-back dependence: forward from the Metadata Write
            // latch before it commits to the FSQ (Section 5.2).
            if (mw.valid && mw.nbVal && mw.nbDestIsMem &&
                mdAddrOf(mw.ev.appAddr) == a) {
                return *mw.nbVal;
            }
            // The FSQ is searched in parallel with the MD cache; a
            // matching entry satisfies the dependence (Section 5.2).
            if (!fsq_.empty()) {
                if (auto v = fsq_.lookup(a))
                    return *v;
            }
        }
        return ctx_.shadow.read(a);
    };
    auto regRead = [&](RegIndex r) -> std::uint8_t {
        if (params_.nonBlocking && mw.valid && mw.nbVal &&
            !mw.nbDestIsMem && mw.ev.tid == ev.tid &&
            mw.ev.hasDst && mw.ev.dst == r) {
            return *mw.nbVal;
        }
        return ctx_.regMd.read(ev.tid, r);
    };
    if (e.s1.valid)
        md.s1 = e.s1.mem ? memRead() : regRead(ev.src1);
    if (e.s2.valid)
        md.s2 = e.s2.mem ? memRead() : regRead(ev.src2);
    if (e.d.valid)
        md.d = e.d.mem ? memRead() : regRead(ev.dst);
    return md;
}

unsigned
Fade::mdReadLatency(const EventTableEntry &e, const MonEvent &ev)
{
    bool touchesMem = (e.s1.valid && e.s1.mem) ||
                      (e.s2.valid && e.s2.mem) || (e.d.valid && e.d.mem);
    if (!touchesMem)
        return 1;
    MdAccessResult r = mdc_.accessApp(ev.appAddr, false);
    return r.latency < 1 ? 1 : r.latency;
}

void
Fade::countFiltered(const MonEvent &ev, const FilterOutcome &out)
{
    ++stats_.instEvents;
    ++stats_.filtered;
    if (ev.eventId < numCanonicalEvents)
        ++stats_.filteredById[ev.eventId];
    if (out.ccPassed)
        ++stats_.filteredCC;
    else if (out.ruPassed)
        ++stats_.filteredRU;
    ++sinceUnfiltered_;
}

void
Fade::forward(const MonEvent &ev, const FilterOutcome *out)
{
    UnfilteredEvent *u = ueq_->pushSlot();
    panic_if(!u, "UEQ push rejected");
    u->ev = ev;
    u->handlerPc = out ? out->handlerPc : 0;
    u->checkPassed = out && out->checkPassed;
    u->hwChecked = out != nullptr;
    ++outstanding_;

    if (!out) {
        ++stats_.highLevelEvents;
    } else {
        ++stats_.instEvents;
        if (ev.eventId < numCanonicalEvents)
            ++stats_.softwareById[ev.eventId];
        if (!out->partial)
            ++stats_.unfiltered;
        else if (out->checkPassed)
            ++stats_.partialPass;
        else
            ++stats_.partialFail;
    }

    // Distance since the previous software-bound event, and bursts
    // under the paper's <=16-distance rule (Fig. 4).
    stats_.unfDistance.sample(sinceUnfiltered_);
    if (haveBurst_ && sinceUnfiltered_ <= 16) {
        ++curBurst_;
    } else {
        if (haveBurst_)
            stats_.unfBurst.sample(curBurst_);
        curBurst_ = 1;
        haveBurst_ = true;
    }
    sinceUnfiltered_ = 0;
}

void
Fade::startStackUpdate(const MonEvent &ev)
{
    if (onStackUpdate)
        onStackUpdate(ev);
    suu_.start(ev.appAddr, ev.len, ev.kind == EventKind::StackCall);
}

void
Fade::finalizeBursts()
{
    if (haveBurst_) {
        stats_.unfBurst.sample(curBurst_);
        haveBurst_ = false;
        curBurst_ = 0;
    }
}

bool
Fade::advanceMw()
{
    PipeSlot &mw = stage(SMw);
    if (!mw.valid)
        return true;
    if (mw.nbVal) {
        if (mw.nbDestIsMem) {
            if (fsq_.full()) {
                ++stats_.stallFsqFull;
                return false;
            }
            fsq_.push(mdAddrOf(mw.ev.appAddr), *mw.nbVal, mw.ev.seq);
        } else {
            ctx_.regMd.write(mw.ev.tid, mw.ev.dst, *mw.nbVal);
        }
    }
    latchDrain(mw);
    return true;
}

void
Fade::advanceFilter()
{
    PipeSlot &filt = stage(SFilt);
    if (!filt.valid)
        return;
    if (filt.shotsLeft > 1) {
        --filt.shotsLeft;
        return;
    }

    if (filt.out.filtered) {
        countFiltered(filt.ev, filt.out);
        latchDrain(filt);
        return;
    }

    // Software processing required: forward through the unfiltered
    // event queue, respecting its backpressure.
    if (ueq_->full()) {
        ++stats_.stallUeqFull;
        return;
    }
    forward(filt.ev, &filt.out);

    if (params_.nonBlocking) {
        const EventTableEntry &e = table_.lookup(filt.ev.eventId);
        auto val = computeMdUpdate(e.nb, filt.md, inv_);
        if (val) {
            // MW latch takes the event: swap the (invalid) MW slot in
            // under FILTER instead of copying the payload across. The
            // moved slot keeps valid == true, the vacated one keeps
            // false — occupancy is unchanged by construction.
            shift(SFilt, SMw);
            PipeSlot &mw = stage(SMw);
            mw.nbVal = val;
            mw.nbDestIsMem = e.d.valid && e.d.mem;
            return;
        }
    } else {
        blocked_ = true;
        blockedSeq_ = filt.ev.seq;
    }
    latchDrain(filt);
}

void
Fade::advanceMdr(Cycle now)
{
    if (!stage(SMdr).valid || stage(SFilt).valid ||
        now < stage(SMdr).readyAt)
        return;
    // The event moves MDR -> FILTER by index swap; the vacated MDR
    // stage inherits the invalid slot FILTER held.
    shift(SMdr, SFilt);
    PipeSlot &filt = stage(SFilt);
    const EventTableEntry &e = table_.lookup(filt.ev.eventId);
    // Metadata is (re)gathered on Filter entry: this models the
    // MW-to-Filter forwarding path for back-to-back dependences.
    filt.md = gatherMd(e, filt.ev);
    filt.out = logic_.evaluate(table_, filt.ev.eventId, filt.md);
    filt.shotsLeft = filt.out.shots;
    stats_.shots += filt.out.shots;
    stats_.comparisons += filt.out.blocksUsed;
    // The swapped-in slot is already valid; occupancy unchanged.
}

void
Fade::advanceCtrl()
{
    if (!stage(SCtrl).valid || stage(SMdr).valid)
        return;
    shift(SCtrl, SMdr);
}

void
Fade::advanceEtr()
{
    if (!stage(SEtr).valid || stage(SCtrl).valid)
        return;
    shift(SEtr, SCtrl);
}

void
Fade::frontEnd()
{
    switch (front_) {
      case FrontState::Normal: {
        if (!eq_ || eq_->empty())
            return;
        const MonEvent &head = eq_->front();
        if (head.isInst()) {
            PipeSlot &etr = stage(SEtr);
            if (etr.valid)
                return;
            fatal_if(!table_.validAt(head.eventId),
                     "monitored event id ", unsigned(head.eventId),
                     " has no event table entry");
            // No full-slot reset: every other latch field is written
            // on stage entry before it is read (md/out/shotsLeft at
            // FILTER, nbVal/nbDestIsMem on the MW hand-off), and
            // readyAt is never written anywhere, so it stays at its
            // constructed 0.
            popEventInto(etr.ev);
            latchFill(etr);
        } else if (head.isStackUpdate()) {
            popEventInto(pendingFront_);
            ++stats_.stackEvents;
            front_ = FrontState::WaitDrainStack;
        } else {
            // High-level event (malloc/free/taint source): handled in
            // software. Order is preserved against in-flight
            // instruction events by waiting for the pipe to empty.
            if (params_.drainOnHighLevel) {
                popEventInto(pendingFront_);
                front_ = FrontState::WaitDrainHigh;
                return;
            }
            if (!pipelineEmpty()) {
                ++stats_.stallDrain;
                return;
            }
            if (ueq_->full()) {
                ++stats_.stallUeqFull;
                return;
            }
            popEventInto(pendingFront_);
            forward(pendingFront_, nullptr);
        }
        break;
      }
      case FrontState::WaitDrainStack: {
        // Pending unfiltered events may reference stack-frame metadata:
        // the unfiltered event queue must be drained (and outstanding
        // handlers completed) before the SUU runs (Section 5.2).
        if (!pipelineEmpty() || !ueq_->empty() || outstanding_ > 0) {
            ++stats_.stallDrain;
            return;
        }
        startStackUpdate(pendingFront_);
        front_ = FrontState::SuuActive;
        break;
      }
      case FrontState::WaitDrainHigh: {
        if (!pipelineEmpty() || !ueq_->empty() || outstanding_ > 0) {
            ++stats_.stallDrain;
            return;
        }
        forward(pendingFront_, nullptr);
        front_ = FrontState::WaitHighDone;
        break;
      }
      case FrontState::WaitHighDone: {
        // Subsequent events may depend on the bulk metadata the
        // high-level handler writes (e.g., a taint source tainting a
        // buffer): filtering resumes only once it completes, so no
        // event is wrongly filtered against stale metadata.
        if (outstanding_ > 0) {
            ++stats_.stallDrain;
            return;
        }
        front_ = FrontState::Normal;
        break;
      }
      case FrontState::SuuActive:
        // Handled in tick().
        break;
    }
}

void
Fade::tick(Cycle now)
{
    bool active = !pipelineEmpty() || front_ != FrontState::Normal ||
                  blocked_ || suu_.busy() || (eq_ && !eq_->empty());
    if (!active) {
        // Fully idle: every latch invalid, front quiet, no queued work
        // — the stage advances and the front end would all no-op.
        ++stats_.idleCycles;
        return;
    }
    ++stats_.busyCycles;

    if (front_ == FrontState::SuuActive) {
        // Filtering is stopped while the SUU sets frame metadata.
        ++stats_.suuCycles;
        suu_.tick();
        if (!suu_.busy())
            front_ = FrontState::Normal;
        return;
    }

    if (blocked_) {
        // Baseline (blocking) FADE: filtering stalls until the software
        // handler of the unfiltered event completes.
        ++stats_.stallBlocking;
        return;
    }

    if (!advanceMw())
        return;
    advanceFilter();
    advanceMdr(now);
    advanceCtrl();
    advanceEtr();
    frontEnd();
}

RunGrainEventOutcome
Fade::processEventRunGrain(const MonEvent &ev)
{
    // Eager-serialized traversal: the pipeline latches are empty and
    // no handler is outstanding (driver invariant), so every metadata
    // gather reads the canonical stores directly — which is exactly
    // the value the MW-latch / FSQ forwarding paths would supply,
    // since the in-flight updates they forward have already been
    // applied by the time this event is processed.
    panic_if(pipeOcc_ != 0 || front_ != FrontState::Normal,
             "run-grain event processing with the pipeline in flight");
    RunGrainEventOutcome o;
    if (ev.shard != shardId_)
        ++stats_.crossShardEvents;

    if (ev.isStackUpdate()) {
        o.kind = RunGrainEventOutcome::Kind::Stack;
        o.serialize = true;
        ++stats_.stackEvents;
        startStackUpdate(ev);
        unsigned cycles = 0;
        while (suu_.busy()) {
            suu_.tick();
            ++cycles;
        }
        o.suuCycles = cycles;
        stats_.suuCycles += cycles;
        return o;
    }

    if (!ev.isInst()) {
        // High-level / sync event: always software. With
        // drainOnHighLevel the unit additionally holds filtering until
        // the handler completes (the serialize flag; the order itself
        // is already preserved by the eager-serialized discipline).
        o.kind = RunGrainEventOutcome::Kind::HighLevel;
        o.software = true;
        o.serialize = params_.drainOnHighLevel;
        forward(ev, nullptr);
        return o;
    }

    fatal_if(!table_.validAt(ev.eventId),
             "monitored event id ", unsigned(ev.eventId),
             " has no event table entry");
    const EventTableEntry &e = table_.lookup(ev.eventId);
    OperandMd md = gatherMd(e, ev);
    FilterOutcome out = logic_.evaluate(table_, ev.eventId, md);
    o.shots = out.shots;
    stats_.shots += out.shots;
    stats_.comparisons += out.blocksUsed;

    if (out.filtered) {
        countFiltered(ev, out);
        return o;
    }

    o.software = true;
    forward(ev, &out);

    if (params_.nonBlocking) {
        auto val = computeMdUpdate(e.nb, md, inv_);
        if (val) {
            if (e.d.valid && e.d.mem)
                fsq_.push(mdAddrOf(ev.appAddr), *val, ev.seq);
            else
                ctx_.regMd.write(ev.tid, ev.dst, *val);
        }
    } else {
        // Baseline blocking FADE: filtering stalls until the handler
        // completes. The stall itself lives in the engine's timing
        // model; functionally the handler runs next anyway.
        o.serialize = true;
    }
    return o;
}

void
Fade::handlerDone(std::uint64_t seq)
{
    panic_if(outstanding_ == 0, "handlerDone with no outstanding handler");
    --outstanding_;
    fsq_.release(seq);
    if (blocked_ && seq == blockedSeq_)
        blocked_ = false;
}

void
Fade::resetStats()
{
    stats_ = FadeStats{};
    sinceUnfiltered_ = 0;
    curBurst_ = 0;
    haveBurst_ = false;
    mdc_.resetStats();
    suu_.resetStats();
}

} // namespace fade
