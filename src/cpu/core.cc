#include "cpu/core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fade
{

CoreParams
inOrderParams()
{
    CoreParams p;
    p.name = "in-order";
    p.width = 1;
    p.robSize = 16;
    p.inOrder = true;
    p.mispredictPenalty = 4;
    return p;
}

CoreParams
leanOooParams()
{
    CoreParams p;
    p.name = "lean-ooo";
    p.width = 2;
    p.robSize = 48;
    p.inOrder = false;
    p.mispredictPenalty = 8;
    return p;
}

CoreParams
aggressiveOooParams()
{
    CoreParams p;
    p.name = "aggr-ooo";
    p.width = 4;
    p.robSize = 96;
    p.inOrder = false;
    p.mispredictPenalty = 8;
    return p;
}

void
RunGrainThread::configure(const CoreParams &p, unsigned robPartition)
{
    width_ = std::max(1u, p.width);
    // The recurrence indexes c_{k-W} inside the commit ring, so the
    // ring must cover at least one full dispatch group.
    robCap_ = std::max(std::max(1u, robPartition), width_);
    inOrder_ = p.inOrder;
    mispredictPenalty_ = p.mispredictPenalty;
    commitRing_.assign(robCap_, 0);
    dispatchRing_.assign(width_, 0);
    robIdx_ = 0;
    // First read when count_ == W must see (W - W) mod R == 0, so the
    // lagged cursor starts W increments behind that.
    robLagIdx_ = (robCap_ - width_ % robCap_) % robCap_;
    wIdx_ = 0;
}

RunGrainThread::Retire
RunGrainThread::retire(const Instruction &inst, unsigned execLat,
                       Cycle fetchGate, Cycle sinkGate)
{
    Retire out;

    // Dispatch: width pacing, branch redirect, then ROB-partition
    // space (the entry k-R must have committed; commit precedes
    // dispatch inside one reference tick, so the same cycle is legal).
    // Ring cursors: wIdx_ == count_ mod W (which also equals
    // (count_ - W) mod W, so the dispatch ring is read and written at
    // the same slot), robIdx_ == count_ mod R, robLagIdx_ ==
    // (count_ - W) mod R. Maintained by wrap-around increments below —
    // the hot path never divides (R defaults to 96, not a power of 2).
    Cycle base = std::max(fetchGate, lastDispatch_);
    if (count_ >= width_)
        base = std::max(base, dispatchRing_[wIdx_] + 1);
    Cycle afterStall = std::max(base, fetchStallUntil_);
    out.fetchWait = afterStall - base;
    Cycle d = afterStall;
    if (count_ >= robCap_)
        d = std::max(d, commitRing_[robIdx_]);
    out.robWait = d - afterStall;
    dispatchRing_[wIdx_] = d;
    lastDispatch_ = d;

    // Issue and complete (dispatchInst()'s timing math).
    Cycle exec = d + 1;
    if (inst.numSrc >= 1)
        exec = std::max(exec, regReady_[inst.src1]);
    if (inst.numSrc >= 2)
        exec = std::max(exec, regReady_[inst.src2]);
    if (inOrder_) {
        exec = std::max(exec, lastIssue_);
        lastIssue_ = exec;
    }
    Cycle r = exec + execLat;
    if (inst.hasDst)
        regReady_[inst.dst] = r;
    if (inst.mispredict)
        fetchStallUntil_ = r + mispredictPenalty_;

    // Commit: in order, width-paced, gated by the sink.
    Cycle cPre = std::max(r, lastCommit_);
    if (count_ >= width_)
        cPre = std::max(cPre, commitRing_[robLagIdx_] + 1);
    Cycle c = std::max(cPre, sinkGate);
    out.sinkWait = c - cPre;
    commitRing_[robIdx_] = c;
    lastCommit_ = c;
    ++count_;
    wIdx_ = (wIdx_ + 1 == width_) ? 0 : wIdx_ + 1;
    robIdx_ = (robIdx_ + 1 == robCap_) ? 0 : robIdx_ + 1;
    robLagIdx_ = (robLagIdx_ + 1 == robCap_) ? 0 : robLagIdx_ + 1;

    out.dispatched = d;
    out.ready = r;
    out.committed = c;
    return out;
}

Core::Core(const CoreParams &p, Cache *l1d)
    : params_(p), l1d_(l1d), robCap_(p.robSize)
{
    fatal_if(p.width == 0, "core width must be positive");
    fatal_if(p.robSize == 0, "ROB size must be positive");
}

unsigned
Core::addThread(InstSource *src, CommitSink *sink)
{
    fatal_if(threads_.size() >= 2, "at most two hardware threads");
    HwThread t;
    t.src = src;
    t.sink = sink;
    // Size the ROB ring once for the full (unpartitioned) capacity so
    // it never grows on the dispatch path.
    t.rob = RingDeque<RobEntry>(params_.robSize);
    threads_.push_back(std::move(t));
    robCap_ = params_.robSize /
              std::max<unsigned>(1, unsigned(threads_.size()));
    return unsigned(threads_.size() - 1);
}

const ThreadStats &
Core::threadStats(unsigned t) const
{
    panic_if(t >= threads_.size(), "bad thread index");
    return threads_[t].stats;
}

ThreadStats &
Core::runGrainThreadStats(unsigned t)
{
    panic_if(t >= threads_.size(), "bad thread index");
    return threads_[t].stats;
}

unsigned
Core::runGrainExecLatency(const Instruction &inst)
{
    // dispatchInst() takes its latency from here too, so both engines
    // select it, and touch the cache, identically; the run-grain
    // engine decides *when* the access lands, this decides *what* it
    // costs.
    if (inst.cls == InstClass::Load)
        return l1d_ ? l1d_->access(inst.memAddr, false) : 2;
    if (inst.cls == InstClass::Store) {
        // Stores retire through a store buffer: keep the tags warm but
        // do not stall the dependence chain.
        if (l1d_)
            l1d_->access(inst.memAddr, true);
        return 1;
    }
    return execLatency(inst.cls);
}

// The per-slot steps are inline: tick() runs them for every slot of
// every cycle.
inline bool
Core::tryCommitOne(HwThread &t, Cycle now)
{
    if (t.rob.empty())
        return false;
    RobEntry &head = t.rob.front();
    if (head.readyAt > now)
        return false;
    if (t.sink && !t.sink->commit(head.inst)) {
        ++t.stats.sinkStallCycles;
        return false;
    }
    t.rob.pop_front();
    return true;
}

inline bool
Core::tryDispatchOne(HwThread &t, Cycle now)
{
    if (t.rob.size() >= robCap_)
        return false;
    if (now < t.fetchStallUntil)
        return false;
    if (!t.src)
        return false;
    // One call per dispatch: a span of one is the instruction, an
    // empty span means the source has nothing this cycle.
    InstSpan s = t.src->fetchSpan(1);
    if (s.empty())
        return false;
    // Time the fetched instruction rather than the ROB copy (the span
    // stays valid until the next call on the source), so the timing
    // does not wait on the copy's stores.
    Cycle readyAt = dispatchInst(t, now, *s.data);
    RobEntry &e = t.rob.pushSlot();
    e.inst = *s.data;
    e.readyAt = readyAt;
    return true;
}

inline Cycle
Core::dispatchInst(HwThread &t, Cycle now, const Instruction &inst)
{
    // A missing source operand reads noReg, which stays 0. Loads and
    // stores use a register-held address: model the address
    // dependence through src1.
    unsigned r1 = inst.numSrc >= 1 ? inst.src1 : noReg;
    unsigned r2 = inst.numSrc >= 2 ? inst.src2 : noReg;
    Cycle execStart =
        std::max({now + 1, t.regReady[r1], t.regReady[r2]});
    if (params_.inOrder) {
        // Program-order issue: an instruction cannot begin execution
        // before its predecessor began.
        execStart = std::max(execStart, t.lastIssue);
        t.lastIssue = execStart;
    }

    Cycle readyAt = execStart + runGrainExecLatency(inst);
    t.regReady[inst.hasDst ? inst.dst : sinkReg] = readyAt;
    Cycle redirect = readyAt + params_.mispredictPenalty;
    t.fetchStallUntil = inst.mispredict ? redirect : t.fetchStallUntil;
    return readyAt;
}

template <typename TryOne>
void
Core::shareSlots(unsigned first, TryOne tryOne)
{
    unsigned budget = params_.width;
    unsigned t = first;
    while (tryOne(threads_[t])) {
        if (--budget == 0)
            return;
        t ^= 1;
    }
    HwThread &other = threads_[t ^ 1];
    while (budget > 0 && tryOne(other))
        --budget;
}

void
Core::tick(Cycle now)
{
    // Per-cycle idle accounting (before any state changes).
    for (auto &t : threads_) {
        if (t.rob.empty() && (!t.src || t.src->stageRun(1) == 0))
            ++t.stats.idleCycles;
    }

    // Commit, then dispatch: up to `width` in-order slots each. A
    // thread whose head is not ready, is refused by its sink, or has
    // nothing to dispatch gives up the rest of the cycle's slots.
    if (threads_.size() == 1) {
        HwThread &t = threads_[0];
        unsigned budget = params_.width;
        while (budget > 0 && tryCommitOne(t, now))
            --budget;
        budget = params_.width;
        while (budget > 0 && tryDispatchOne(t, now))
            --budget;
        return;
    }
    if (threads_.empty())
        return;
    // Two threads share each cycle's slots round-robin, and the
    // thread that goes first alternates every cycle.
    shareSlots(firstThread_,
               [this, now](HwThread &t) { return tryCommitOne(t, now); });
    shareSlots(firstThread_,
               [this, now](HwThread &t) { return tryDispatchOne(t, now); });
    firstThread_ ^= 1;
}

bool
Core::drained() const
{
    for (const auto &t : threads_) {
        if (!t.rob.empty())
            return false;
    }
    return true;
}

void
Core::resetStats()
{
    for (auto &t : threads_)
        t.stats = ThreadStats{};
}

} // namespace fade
