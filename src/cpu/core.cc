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
    // Mirrors the latency selection (and the cache side effects) of
    // dispatchInst() exactly; the run-grain engine decides *when* the
    // access lands, this decides *what* it costs.
    if (inst.cls == InstClass::Load)
        return l1d_ ? l1d_->access(inst.memAddr, false) : 2;
    if (inst.cls == InstClass::Store) {
        if (l1d_)
            l1d_->access(inst.memAddr, true);
        return 1;
    }
    return execLatency(inst.cls);
}

unsigned
Core::robCapacity() const
{
    // Static partitioning between hardware threads (cached: this sits
    // on every commit/dispatch test).
    return robCap_;
}

bool
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
    ++t.stats.retired;
    t.rob.pop_front();
    return true;
}

bool
Core::tryDispatchOne(HwThread &t, Cycle now)
{
    if (t.rob.size() >= robCapacity())
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
    RobEntry &e = t.rob.pushSlot();
    e.inst = *s.data;
    dispatchInst(t, now, e);
    return true;
}

void
Core::dispatchInst(HwThread &t, Cycle now, RobEntry &e)
{
    const Instruction &inst = e.inst;
    Cycle depReady = 0;
    if (inst.numSrc >= 1)
        depReady = std::max(depReady, t.regReady[inst.src1]);
    if (inst.numSrc >= 2)
        depReady = std::max(depReady, t.regReady[inst.src2]);
    // Loads and stores use a register-held address: model the address
    // dependence through src1 (already covered above).

    Cycle execStart = std::max<Cycle>(now + 1, depReady);
    if (params_.inOrder) {
        // Program-order issue: an instruction cannot begin execution
        // before its predecessor began.
        execStart = std::max(execStart, t.lastIssue);
        t.lastIssue = execStart;
    }

    unsigned lat;
    if (inst.cls == InstClass::Load) {
        lat = l1d_ ? l1d_->access(inst.memAddr, false) : 2;
    } else if (inst.cls == InstClass::Store) {
        // Stores retire through a store buffer: keep the tags warm but
        // do not stall the dependence chain.
        if (l1d_)
            l1d_->access(inst.memAddr, true);
        lat = 1;
    } else {
        lat = execLatency(inst.cls);
    }

    Cycle readyAt = execStart + lat;
    if (inst.hasDst)
        t.regReady[inst.dst] = readyAt;

    if (inst.mispredict)
        t.fetchStallUntil = readyAt + params_.mispredictPenalty;

    e.readyAt = readyAt;
}

void
Core::tick(Cycle now)
{
    ++cycles_;
    unsigned n = unsigned(threads_.size());
    if (n == 0)
        return;

    // Per-cycle condition accounting (before any state changes).
    for (auto &t : threads_) {
        if (t.rob.size() >= robCapacity())
            ++t.stats.robFullCycles;
        if (now < t.fetchStallUntil)
            ++t.stats.fetchBubbleCycles;
        if (t.rob.empty() && (!t.src || t.src->stageRun(1) == 0))
            ++t.stats.idleCycles;
    }

    // Commit: up to `width` slots shared round-robin across threads.
    // A thread whose head is not ready (or is refused by its sink)
    // yields its slots to the other thread.
    {
        unsigned budget = params_.width;
        std::array<bool, 2> open{true, n > 1};
        unsigned t = commitRr_;
        while (budget > 0 && (open[0] || open[1])) {
            if (open[t]) {
                if (tryCommitOne(threads_[t], now))
                    --budget;
                else
                    open[t] = false;
            }
            if (++t == n)
                t = 0;
        }
        commitRr_ = commitRr_ + 1 == n ? 0 : commitRr_ + 1;
    }

    // Dispatch: same slot-by-slot sharing.
    {
        unsigned budget = params_.width;
        std::array<bool, 2> open{true, n > 1};
        unsigned t = dispatchRr_;
        while (budget > 0 && (open[0] || open[1])) {
            if (open[t]) {
                if (tryDispatchOne(threads_[t], now))
                    --budget;
                else
                    open[t] = false;
            }
            if (++t == n)
                t = 0;
        }
        dispatchRr_ = dispatchRr_ + 1 == n ? 0 : dispatchRr_ + 1;
    }
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
    cycles_ = 0;
}

} // namespace fade
