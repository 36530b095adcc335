#include "trace/threads.hh"

#include <algorithm>

#include "core/regfiles.hh"
#include "sim/logging.hh"

namespace fade
{

namespace
{

constexpr Addr fillerPcBase = 0x1000;
constexpr Addr fillerPcStride = 0x100000;
constexpr Addr privStride = 0x100000;
constexpr unsigned privWords = 4096;

Addr
lockAddr(unsigned l)
{
    return procLockBase + Addr(l) * 64;
}

Addr
threadObjAddr(unsigned t)
{
    return procThreadObjBase + Addr(t) * 64;
}

RegIndex
pickReg(Rng &rng)
{
    return RegIndex(1 + rng.range(27));
}

/** Plan-construction state: appends planned instructions to per-thread
 *  scripts, assigning each a pc from the global plan-order region and
 *  a small deterministic filler gap. */
struct PlanBuilder
{
    SyncPlan plan;
    Rng rng;
    std::uint64_t nextPcIdx = 0;
    std::vector<std::uint32_t> acq; ///< per-lock acquisition counter

    PlanBuilder(const BenchProfile &p, unsigned locks)
        : rng(p.seed ^ 0x74687265616473ULL), acq(locks, 0)
    {
        plan.perThread.resize(p.procThreads);
    }

    Instruction &
    add(unsigned t, InstClass cls)
    {
        SyncPlan::Step s;
        s.gap = 1 + rng.range(6);
        s.inst.cls = cls;
        s.inst.pc = procPlanPcBase + 4 * nextPcIdx++;
        s.inst.tid = ThreadId(t);
        plan.perThread[t].push_back(s);
        return plan.perThread[t].back().inst;
    }

    Instruction &
    sync(unsigned t, EventKind kind, Addr obj, std::uint32_t aux)
    {
        Instruction &i = add(t, InstClass::HighLevel);
        i.hlKind = kind;
        i.frameBase = obj;
        i.frameBytes = aux;
        return i;
    }

    void
    acquire(unsigned t, unsigned l)
    {
        sync(t, EventKind::LockAcquire, lockAddr(l), acq[l]++);
    }

    void
    release(unsigned t, unsigned l)
    {
        sync(t, EventKind::LockRelease, lockAddr(l), acq[l] - 1);
    }

    Instruction &
    access(unsigned t, Addr word, bool store)
    {
        Instruction &i =
            add(t, store ? InstClass::Store : InstClass::IntAlu);
        if (!store) {
            i.cls = InstClass::Load;
            i.dst = pickReg(rng);
            i.hasDst = true;
        }
        i.src1 = pickReg(rng);
        i.numSrc = 1;
        i.memAddr = word;
        return i;
    }
};

} // namespace

SyncPlan
SyncPlan::build(const BenchProfile &p)
{
    const unsigned T = p.procThreads;
    const unsigned L = p.procLocks ? p.procLocks : 1;
    panic_if(T == 0, "SyncPlan::build on a non-process profile");
    panic_if(Addr(L) * procWordsPerLock * 4 >
                 procRaceBase - procSharedBase,
             "procLocks spill out of the lock-guarded shared region");

    PlanBuilder b(p, L);

    // Thread 0 spawns every other thread before any of their planned
    // work (the create edge every later happens-before path builds on).
    for (unsigned c = 1; c < T; ++c)
        b.sync(0, EventKind::ThreadCreate, threadObjAddr(c), c);

    // Lock-guarded critical sections over disjoint per-lock word
    // slices: correctly synchronized by construction, so clean runs
    // must stay quiet.
    for (unsigned s = 0; s < p.procSections; ++s) {
        unsigned t = b.rng.range(T);
        unsigned l = b.rng.range(L);
        b.acquire(t, l);
        unsigned n = 1 + b.rng.range(3);
        for (unsigned k = 0; k < n; ++k) {
            Addr word = procSharedBase +
                        4 * (Addr(l) * procWordsPerLock +
                             b.rng.range(procWordsPerLock));
            b.access(t, word, b.rng.chance(0.5));
        }
        b.release(t, l);
    }

    // Injected cross-thread taint flows: thread a publishes a tainted
    // buffer under a lock, thread b reads it under the same lock in a
    // later critical section (happens-before ordered hand-off).
    for (unsigned f = 0; T >= 2 && f < p.injectTaintFlows; ++f) {
        unsigned a = b.rng.range(T);
        unsigned bb = (a + 1 + b.rng.range(T - 1)) % T;
        unsigned l = b.rng.range(L);
        Addr buf = procTaintBase + Addr(f) * 64;
        b.acquire(a, l);
        b.sync(a, EventKind::TaintSource, buf, 8);
        b.release(a, l);
        b.acquire(bb, l);
        b.access(bb, buf, false).truth |= truthCrossTaint;
        b.release(bb, l);
    }

    // Injected races: two threads hit the same word with no
    // synchronization between them (dedicated words, so the clean
    // sections can never alias them).
    for (unsigned r = 0; T >= 2 && r < p.injectRaces; ++r) {
        unsigned a = b.rng.range(T);
        unsigned bb = (a + 1 + b.rng.range(T - 1)) % T;
        Addr word = procRaceBase + Addr(r) * 64;
        b.access(a, word, true);
        b.access(bb, word, b.rng.chance(0.5)).truth |= truthDataRace;
    }

    // Thread 0 joins every child after all planned work.
    for (unsigned c = 1; c < T; ++c)
        b.sync(0, EventKind::ThreadJoin, threadObjAddr(c), c);

    return std::move(b.plan);
}

std::uint64_t
threadedPlanHorizon(const BenchProfile &p)
{
    SyncPlan plan = SyncPlan::build(p);
    std::uint64_t horizon = 0;
    for (const auto &script : plan.perThread) {
        std::uint64_t len = 0;
        for (const SyncPlan::Step &s : script)
            len += s.gap + 1;
        horizon = std::max(horizon, len);
    }
    return horizon;
}

ThreadedSource::ThreadedSource(const BenchProfile &p)
{
    const unsigned T = p.procThreads;
    fatal_if(T == 0, "ThreadedSource on a non-process profile");
    fatal_if(T > maxThreads, "process has ", T,
             " threads but the MD register file supports ",
             unsigned(maxThreads));
    fatal_if(p.procShards == 0 || p.procShardId >= p.procShards,
             "invalid process placement: shard ", p.procShardId,
             " of ", p.procShards);
    fatal_if(T % p.procShards != 0, "process threads (", T,
             ") must divide evenly across shards (", p.procShards, ")");

    SyncPlan plan = SyncPlan::build(p);
    for (unsigned t = p.procShardId; t < T; t += p.procShards) {
        Hosted h;
        h.tid = ThreadId(t);
        h.rng = Rng(p.seed ^ (0x9E3779B97F4A7C15ULL * (t + 1)));
        h.pc = fillerPcBase + Addr(t) * fillerPcStride;
        h.priv = globalBase + Addr(t) * privStride;
        h.script = std::move(plan.perThread[t]);
        h.gapLeft = h.script.empty() ? 0 : h.script.front().gap;
        h.propFrac = p.propAluFrac;
        h.mispredict = p.mispredictRate;
        hosted_.push_back(std::move(h));
    }

    quantum_ = p.switchQuantum ? p.switchQuantum : 64;
    left_ = quantum_;

    layout_.globalBase = globalBase;
    layout_.globalLen = std::uint64_t(T) * privStride;
    layout_.stackBase = stackLimit;
    layout_.stackLen = 0x4000;
}

Instruction
ThreadedSource::filler(Hosted &h)
{
    Instruction i;
    i.pc = h.pc;
    h.pc += 4;
    i.tid = h.tid;

    unsigned r = h.rng.range(100);
    if (r < 55) {
        i.cls = InstClass::IntAlu;
        i.src1 = pickReg(h.rng);
        i.src2 = pickReg(h.rng);
        i.numSrc = 2;
        i.dst = pickReg(h.rng);
        i.hasDst = true;
        i.mayPropagate = h.rng.chance(h.propFrac);
    } else if (r < 80) {
        bool store = r >= 70;
        i.cls = store ? InstClass::Store : InstClass::Load;
        i.memAddr = h.priv + 4 * h.rng.range(privWords);
        i.src1 = pickReg(h.rng);
        i.numSrc = 1;
        if (!store) {
            i.dst = pickReg(h.rng);
            i.hasDst = true;
        }
    } else if (r < 90) {
        i.cls = InstClass::Branch;
        i.src1 = pickReg(h.rng);
        i.numSrc = 1;
        i.mispredict = h.rng.chance(h.mispredict);
    } else {
        i.cls = InstClass::Nop;
    }
    return i;
}

InstSpan
ThreadedSource::fetchSpan(std::size_t max)
{
    span_.clear();
    while (span_.size() < max) {
        Hosted &h = hosted_[cur_];
        if (h.gapLeft > 0) {
            --h.gapLeft;
            span_.push_back(filler(h));
        } else if (h.step < h.script.size()) {
            span_.push_back(h.script[h.step].inst);
            if (++h.step < h.script.size())
                h.gapLeft = h.script[h.step].gap;
        } else {
            span_.push_back(filler(h));
        }
        if (--left_ == 0) {
            left_ = quantum_;
            cur_ = (cur_ + 1) % hosted_.size();
        }
    }
    return {span_.data(), span_.size()};
}

} // namespace fade
