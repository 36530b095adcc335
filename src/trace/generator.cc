#include "trace/generator.hh"

#include <algorithm>

#include "core/regfiles.hh"
#include "sim/logging.hh"

namespace fade
{

namespace
{

/** Per-thread stack carve-out (far larger than any call stack grows). */
constexpr Addr threadStackSpan = 0x400000;

/** Ring-buffer capacity for pointer/taint slot tracking. */
constexpr std::size_t slotRingCap = 256;

void
ringPush(TraceGenerator::SlotRing &ring, Addr a)
{
    ring.sig |= TraceGenerator::SlotRing::granuleBit(a);
    if (ring.v.size() < slotRingCap) {
        ring.v.push_back(a);
    } else {
        ring.v[a / wordSize % slotRingCap] = a;
    }
}

/** recentShared variant (plain vector: never range-pruned). */
void
ringPush(std::vector<Addr> &ring, Addr a)
{
    if (ring.size() < slotRingCap) {
        ring.push_back(a);
    } else {
        ring[a / wordSize % slotRingCap] = a;
    }
}

/** Drop ring entries inside [base, base+len): the region died. */
void
ringPrune(TraceGenerator::SlotRing &ring, Addr base, std::uint64_t len)
{
    // Signature fast-out: no granule of the dead range was ever
    // pushed, so no entry can match (see SlotRing).
    if ((ring.sig & TraceGenerator::SlotRing::rangeMask(base, len)) == 0)
        return;
    std::uint64_t survivors = 0;
    for (std::size_t k = 0; k < ring.v.size();) {
        if (ring.v[k] >= base && ring.v[k] < base + len) {
            ring.v[k] = ring.v.back();
            ring.v.pop_back();
        } else {
            survivors |= TraceGenerator::SlotRing::granuleBit(ring.v[k]);
            ++k;
        }
    }
    ring.sig = survivors;
}

} // namespace

void
TraceGenerator::eraseWordRange(Addr base, std::uint64_t lenBytes)
{
    // Page-span bitmap clear: large frees and deep stack pops mask two
    // edge groups and zero-fill the interior instead of probing
    // word-by-word.
    ptrWords_.eraseRange(wordKey(base), base + lenBytes);
    taintWords_.eraseRange(wordKey(base), base + lenBytes);
}

TraceGenerator::TraceGenerator(const BenchProfile &profile)
    : profile_(profile), rng_(profile.seed, 0x9e3779b97f4a7c15ULL)
{
    fatal_if(profile_.numThreads == 0 || profile_.numThreads > maxThreads,
             "profile thread count out of range");

    // Hoist every per-instruction Bernoulli threshold out of the fetch
    // loop (bit-identical to rng_.chance of the same fractions).
    draws_.call = Bernoulli(profile_.callRate * 2.0);
    draws_.malloc_ = Bernoulli(profile_.mallocRate);
    draws_.taintSrc = Bernoulli(profile_.taintSourceRate);
    draws_.taintOp = Bernoulli(profile_.taintOpFrac);
    draws_.ptrOp = Bernoulli(profile_.ptrOpFrac);
    draws_.seq = Bernoulli(profile_.seqFrac);
    draws_.hot = Bernoulli(profile_.hotFrac);
    draws_.fresh = Bernoulli(profile_.freshSlotFrac);
    draws_.aluImm = Bernoulli(profile_.aluImmFrac);
    draws_.prop = Bernoulli(profile_.propAluFrac);
    draws_.misp = Bernoulli(profile_.mispredictRate);
    draws_.mispHalf = Bernoulli(profile_.mispredictRate * 0.5);
    draws_.misp03 = Bernoulli(profile_.mispredictRate * 0.3);
    draws_.highPhase = Bernoulli(profile_.highPhaseFrac);
    draws_.free_ = Bernoulli(profile_.freeFrac);
    draws_.ptrAlloc = Bernoulli(profile_.ptrAllocFrac);
    draws_.half = Bernoulli(0.5);
    draws_.p85 = Bernoulli(0.85);
    draws_.p25 = Bernoulli(0.25);
    draws_.p04 = Bernoulli(0.04);
    draws_.remote = Bernoulli(profile_.remoteConflictFrac);
    draws_.shared = Bernoulli(profile_.sharedFrac);

    // Integer cut-points for the two selection cascades (see DrawSet):
    // cutsFor(chain)[k] is the smallest draw whose chain branch exceeds
    // k, found by binary search — legal because each chain's branch
    // index is monotone nondecreasing in the draw value.
    auto cutsFor = [](unsigned branches, auto &&chain, std::uint64_t *out) {
        for (unsigned k = 0; k + 1 < branches; ++k) {
            std::uint64_t lo = 0, hi = std::uint64_t(1) << 32;
            while (lo < hi) {
                std::uint64_t mid = (lo + hi) / 2;
                if (chain(std::uint32_t(mid)) > k)
                    hi = mid;
                else
                    lo = mid + 1;
            }
            out[k] = lo;
        }
    };
    auto mixChain = [](const InstMix &m) {
        // The reference double-arithmetic instruction-mix cascade,
        // preserved operation for operation.
        return [&m](std::uint32_t x) -> unsigned {
            double u = x * (1.0 / 4294967296.0);
            if ((u -= m.load) < 0)
                return 0;
            if ((u -= m.store) < 0)
                return 1;
            if ((u -= m.alu) < 0)
                return 2;
            if ((u -= m.mul) < 0)
                return 3;
            if ((u -= m.fp) < 0)
                return 4;
            if ((u -= m.branch) < 0)
                return 5;
            if ((u -= m.jumpInd) < 0)
                return 6;
            return 7;
        };
    };
    cutsFor(8, mixChain(profile_.highMix), draws_.mixHighCuts.data());
    cutsFor(8, mixChain(profile_.lowMix), draws_.mixLowCuts.data());
    {
        // pickMemAddr's region cascade, same preservation.
        double total = profile_.memStackFrac + profile_.memHeapFrac +
                       profile_.memGlobalFrac;
        auto memChain = [&](std::uint32_t x) -> unsigned {
            double u = x * (1.0 / 4294967296.0) * total;
            if (u < profile_.memStackFrac)
                return 0;
            if (u < profile_.memStackFrac + profile_.memHeapFrac)
                return 1;
            return 2;
        };
        cutsFor(3, memChain, draws_.memCuts.data());
    }

    globalLen_ = std::min<std::uint64_t>(
        std::uint64_t(1) << profile_.globalWsLog2,
        globalLimit - globalBase);
    layout_.globalBase = globalBase;
    layout_.globalLen = globalLen_;
    sharedBase_ = globalBase + globalLen_ / 2;
    sharedLen_ = globalLen_ / 2;

    threads_.resize(profile_.numThreads);
    setCurThread(0);
    Addr minSp = stackTop;
    for (unsigned t = 0; t < profile_.numThreads; ++t) {
        ThreadState &ts = threads_[t];
        ts.sp = stackTop - t * threadStackSpan;
        // Initial call stack: targetDepth live frames.
        for (unsigned d = 0; d < profile_.targetDepth; ++d) {
            unsigned words =
                profile_.frameWordsMin +
                rng_.range(profile_.frameWordsMax - profile_.frameWordsMin +
                           1);
            ts.sp -= words * wordSize;
            ts.stack.push_back(
                {ts.sp, words, std::min(profile_.spillSlots, words)});
        }
        ts.pc = 0x1000 + t * 0x100000;
        minSp = std::min(minSp, ts.sp);
    }
    layout_.stackBase = minSp;
    layout_.stackLen = stackTop - minSp;

    // Startup allocations so the heap has live data before measurement
    // (these flow through the event stream as ordinary malloc events).
    unsigned warmAllocs = std::max(24u, 4 * profile_.numThreads);
    for (unsigned i = 0; i < warmAllocs; ++i) {
        // Spread startup allocations across threads so parallel
        // workloads keep their heap data thread-private.
        setCurThread(i % profile_.numThreads);
        // The first four allocations per thread seed the dedicated
        // base-pointer registers r28..r31.
        RegIndex forceDst =
            i < 4 * profile_.numThreads
                ? RegIndex(28 + i / profile_.numThreads)
                : RegIndex(0);
        // emitMalloc() appends the allocation's init stores to
        // pending_; the malloc itself must precede them.
        auto at = std::ptrdiff_t(pending_.size());
        Instruction m = emitMalloc(i >= 4 * profile_.numThreads, forceDst);
        pending_.insert(std::size_t(at), m);
    }
    setCurThread(0);
}

Instruction
TraceGenerator::make(InstClass cls)
{
    Instruction i;
    i.cls = cls;
    i.pc = cur().pc;
    cur().pc += 4;
    i.tid = ThreadId(curThread_);
    return i;
}

RegIndex
TraceGenerator::pickPtrReg(bool transientOnly)
{
    ThreadState &ts = cur();
    // Half the time use a dedicated base register (r28..r31): compiled
    // code keeps object/frame base pointers live in registers for long
    // stretches, which sustains pointer activity even when transient
    // pointer registers have been clobbered.
    if (!transientOnly && draws_.half.draw(rng_)) {
        RegIndex r = RegIndex(28 + rng_.range(4));
        if (ts.regPtr[r])
            return r;
    }
    unsigned start = rng_.range(numArchRegs);
    for (unsigned k = 0; k < numArchRegs; ++k) {
        RegIndex r = RegIndex((start + k) % numArchRegs);
        if (transientOnly && (r >= 28 || r == 0))
            continue;
        if (r != 0 && ts.regPtr[r])
            return r;
    }
    if (transientOnly)
        return 0;
    RegIndex r = RegIndex(28 + rng_.range(4));
    return ts.regPtr[r] ? r : 0;
}

RegIndex
TraceGenerator::pickTaintReg()
{
    ThreadState &ts = cur();
    unsigned start = rng_.range(numArchRegs);
    for (unsigned k = 0; k < numArchRegs; ++k) {
        RegIndex r = RegIndex((start + k) % numArchRegs);
        if (r != 0 && ts.regTaint[r])
            return r;
    }
    return 0;
}

Addr
TraceGenerator::pickStackAddr(bool forWrite)
{
    ThreadState &ts = cur();
    if (ts.stack.empty())
        return pickGlobalAddr();
    Frame &f = ts.stack.back();
    unsigned slot;
    if (forWrite && f.spilled < f.words &&
        (f.spilled == 0 || draws_.fresh.draw(rng_))) {
        slot = f.spilled++;
    } else {
        slot = rng_.range(std::max(1u, f.spilled));
    }
    return f.base + slot * wordSize;
}

Addr
TraceGenerator::pickHeapAddr(bool forWrite)
{
    if (liveAllocs_.empty())
        return pickGlobalAddr();
    // Allocations are thread-private in parallel workloads: scan for
    // one owned by the current thread (sharing goes through the
    // dedicated shared region instead).
    unsigned n = unsigned(liveAllocs_.size());
    unsigned start = rng_.range(n);
    Alloc *a = nullptr;
    for (unsigned k = 0; k < n; ++k) {
        // (start + k) mod n without the division: both terms are < n.
        unsigned idx = start + k;
        if (idx >= n)
            idx -= n;
        Alloc &cand = liveAllocs_[idx];
        if (cand.noWalk)
            continue;
        if (profile_.numThreads > 1 && cand.owner != curThread_) {
            if (!a)
                a = &cand;
            continue;
        }
        a = &cand;
        break;
    }
    if (!a)
        return pickGlobalAddr();

    if (forWrite) {
        // Mostly rewrite initialized data; occasionally extend the
        // initialized prefix contiguously (programs write before they
        // read, and initialization is sequential).
        if (a->initWords < a->words &&
            (a->initWords == 0 || draws_.p04.draw(rng_))) {
            return a->base + (a->initWords++) * wordSize;
        }
    }
    unsigned limit = a->initWords;
    if (limit == 0)
        return pickGlobalAddr();

    // Spatial locality: sequential accesses continue a stride-1 walk
    // through the current allocation; random accesses (and run ends)
    // jump elsewhere.
    auto &run = cur().heapRun;
    if (draws_.seq.draw(rng_)) {
        if (run.next != 0 && run.next < run.end) {
            Addr addr = run.next;
            run.next += wordSize;
            return addr;
        }
        unsigned word = randomWord(limit);
        run.next = a->base + word * wordSize + wordSize;
        run.end = a->base + limit * wordSize;
        return a->base + word * wordSize;
    }
    return a->base + randomWord(limit) * wordSize;
}

Addr
TraceGenerator::pickPtrStoreAddr()
{
    // Pointers live in node pools (linked structures) or stack slots,
    // not in the flat data arrays the walks traverse.
    for (unsigned k = 0; k < liveAllocs_.size(); ++k) {
        Alloc &cand = liveAllocs_[rng_.range(unsigned(liveAllocs_.size()))];
        if (cand.noWalk &&
            (profile_.numThreads <= 1 || cand.owner == curThread_)) {
            if (cand.initWords == 0)
                cand.initWords = 1;
            return cand.base + rng_.range(cand.initWords) * wordSize;
        }
    }
    return pickStackAddr(true);
}

Addr
TraceGenerator::pickGlobalAddr()
{
    // Parallel workloads: each thread works in a private slice of the
    // non-shared half of the global segment.
    Addr base = globalBase;
    std::uint64_t len = globalLen_;
    if (profile_.numThreads > 1) {
        len = (globalLen_ / 2) / profile_.numThreads;
        base = globalBase + curThread_ * len;
    }
    std::uint64_t words = std::max<std::uint64_t>(1, len / wordSize);
    auto &run = cur().globalRun;
    if (draws_.seq.draw(rng_)) {
        if (run.next != 0 && run.next < run.end) {
            Addr addr = run.next;
            run.next += wordSize;
            return addr;
        }
        std::uint64_t w = randomWord(words);
        run.next = base + w * wordSize + wordSize;
        run.end = base + len;
        return base + w * wordSize;
    }
    return base + randomWord(words) * wordSize;
}

Addr
TraceGenerator::pickSharedAddr()
{
    ThreadState &ts = cur();
    // Conflict: touch a word another thread recently owned.
    if (draws_.remote.draw(rng_) &&
        profile_.numThreads > 1) {
        unsigned other =
            (curThread_ + 1 + rng_.range(profile_.numThreads - 1)) %
            profile_.numThreads;
        auto &ring = threads_[other].recentShared;
        if (!ring.empty()) {
            Addr a = ring[rng_.range(unsigned(ring.size()))];
            ringPush(ts.recentShared, a);
            return a;
        }
    }
    // Temporal affinity: threads mostly re-touch the shared words they
    // worked on recently within their quantum.
    if (!ts.recentShared.empty() && draws_.p85.draw(rng_))
        return ts.recentShared[rng_.range(unsigned(ts.recentShared.size()))];

    std::uint64_t words = std::max<std::uint64_t>(1, sharedLen_ / wordSize);
    Addr a = sharedBase_ + (rng_.next64() % words) * wordSize;
    if (ts.recentShared.size() < 64)
        ts.recentShared.push_back(a);
    else
        ts.recentShared[rng_.range(64)] = a;
    return a;
}

Addr
TraceGenerator::pickMemAddr(bool forWrite)
{
    if (profile_.numThreads > 1 && draws_.shared.draw(rng_))
        return pickSharedAddr();
    // Integer cut-point selection, bit-identical to the double cascade
    // it replaced (see DrawSet::memCuts).
    std::uint32_t x = rng_.next();
    if (x < draws_.memCuts[0])
        return pickStackAddr(forWrite);
    if (x < draws_.memCuts[1])
        return pickHeapAddr(forWrite);
    return pickGlobalAddr();
}

Instruction
TraceGenerator::makeLoad()
{
    Instruction i = make(InstClass::Load);
    bool taintOp = taintActive() && !cur().taintSlots.empty() &&
                   draws_.taintOp.draw(rng_);
    bool ptrOp = !taintOp && !cur().ptrSlots.empty() &&
                 draws_.ptrOp.draw(rng_);
    Addr a;
    if (taintOp)
        a = cur().taintSlots[rng_.range(unsigned(cur().taintSlots.size()))];
    else if (ptrOp)
        a = cur().ptrSlots[rng_.range(unsigned(cur().ptrSlots.size()))];
    else
        a = pickMemAddr(false);
    i.memAddr = wordKey(a);
    i.numSrc = 1;
    i.src1 = pickSrcReg();
    i.hasDst = true;
    i.dst = pickDstReg();
    // The destination's semantic state follows what the slot actually
    // holds (monitors will compute exactly this from the event).
    noteWrite(i.dst, ptrWords_.contains(i.memAddr),
              taintWords_.contains(i.memAddr));
    return i;
}

Instruction
TraceGenerator::makeStore()
{
    Instruction i = make(InstClass::Store);
    RegIndex taintReg = 0;
    RegIndex ptrReg = 0;
    if (taintActive() && draws_.taintOp.draw(rng_))
        taintReg = pickTaintReg();
    if (!taintReg && draws_.ptrOp.draw(rng_))
        ptrReg = pickPtrReg();

    Addr a = ptrReg ? pickPtrStoreAddr() : pickMemAddr(true);
    i.memAddr = wordKey(a);
    i.numSrc = 2;
    i.src2 = pickSrcReg(); // address register
    if (taintReg) {
        i.src1 = taintReg;
        ringPush(cur().taintSlots, i.memAddr);
        taintWords_.insert(i.memAddr);
        ptrWords_.erase(i.memAddr);
    } else if (ptrReg) {
        i.src1 = ptrReg;
        ringPush(cur().ptrSlots, i.memAddr);
        ptrWords_.insert(i.memAddr);
        taintWords_.erase(i.memAddr);
    } else {
        i.src1 = pickDataReg();
        ptrWords_.erase(i.memAddr);
        taintWords_.erase(i.memAddr);
    }
    return i;
}

Instruction
TraceGenerator::makeAlu(bool imm)
{
    Instruction i = make(InstClass::IntAlu);
    i.hasDst = true;

    bool taintOp = taintActive() && draws_.taintOp.draw(rng_);
    RegIndex tr = taintOp ? pickTaintReg() : 0;
    bool ptrOp = !tr && draws_.ptrOp.draw(rng_);
    RegIndex pr = ptrOp ? pickPtrReg() : 0;

    if (pr && pr < 28 && draws_.p25.draw(rng_)) {
        // Overwrite a pointer register with data: drops a reference
        // (how most leaks become detectable).
        i.numSrc = imm ? 1 : 2;
        i.src1 = pickDataReg();
        i.src2 = imm ? RegIndex(0) : pickDataReg();
        i.dst = pr;
        noteWrite(pr, false, false);
        return i;
    }

    if (tr) {
        // Taint propagation arithmetic.
        i.numSrc = imm ? 1 : 2;
        i.src1 = tr;
        i.src2 = imm ? RegIndex(0) : pickDataReg();
        i.dst = pickDstReg();
        noteWrite(i.dst, false, true);
        return i;
    }

    if (pr) {
        // Pointer arithmetic increments in place (p += stride): the
        // register stays a pointer and no new pointer registers are
        // sprayed across the register file.
        i.numSrc = imm ? 1 : 2;
        i.src1 = pr;
        i.src2 = imm ? RegIndex(0) : pickDataReg();
        i.dst = pr;
        noteWrite(pr, true, false);
        return i;
    }

    i.numSrc = imm ? 1 : 2;
    i.src1 = pickDataReg();
    i.src2 = imm ? RegIndex(0) : pickDataReg();
    i.mayPropagate = draws_.prop.draw(rng_);
    if (i.mayPropagate) {
        i.dst = pickDstReg();
        noteWrite(i.dst, false, false);
    } else {
        // Compare/flag-setting form: writes condition codes, not an
        // integer register, so monitors can eliminate it at the source
        // without losing propagation coverage.
        i.hasDst = false;
    }
    return i;
}

Instruction
TraceGenerator::makeMul()
{
    Instruction i = make(InstClass::IntMul);
    i.numSrc = 2;
    i.src1 = pickDataReg();
    i.src2 = pickDataReg();
    i.hasDst = true;
    i.dst = pickDstReg();
    noteWrite(i.dst, false, cur().regTaint[i.src1] ||
                                cur().regTaint[i.src2]);
    return i;
}

Instruction
TraceGenerator::makeFp()
{
    Instruction i = make(InstClass::FpAlu);
    // FP results live in the (disjoint) FP register file; they never
    // carry pointers or taint into the integer registers the monitors
    // shadow.
    i.numSrc = 2;
    i.src1 = pickDataReg();
    i.src2 = pickDataReg();
    i.hasDst = false;
    return i;
}

Instruction
TraceGenerator::makeBranch()
{
    Instruction i = make(InstClass::Branch);
    i.numSrc = 2;
    i.src1 = pickDataReg();
    i.src2 = pickDataReg();
    i.mispredict = draws_.misp.draw(rng_);
    return i;
}

Instruction
TraceGenerator::makeJumpInd()
{
    Instruction i = make(InstClass::JumpInd);
    i.numSrc = 1;
    // Well-behaved code jumps through untainted function pointers;
    // avoid tainted registers so only injected exploits alert. r1 is
    // never a destination, so it is always clean as a fallback.
    RegIndex r = pickDataReg();
    for (unsigned k = 0; k < 4 && cur().regTaint[r]; ++k)
        r = pickDataReg();
    if (cur().regTaint[r])
        r = 1;
    i.src1 = r;
    i.mispredict = draws_.mispHalf.draw(rng_);
    return i;
}

Instruction
TraceGenerator::emitCall()
{
    ThreadState &ts = cur();
    unsigned words =
        profile_.frameWordsMin +
        rng_.range(profile_.frameWordsMax - profile_.frameWordsMin + 1);
    Addr base = ts.sp - words * wordSize;

    Instruction i = make(InstClass::Call);
    i.frameBase = base;
    i.frameBytes = words * wordSize;

    ts.sp = base;
    unsigned spills = std::min(profile_.spillSlots, words);
    ts.stack.push_back({base, words, spills});

    // Prologue: spill registers into the fresh frame.
    for (unsigned s = 0; s < spills; ++s) {
        Instruction st = make(InstClass::Store);
        st.memAddr = wordKey(base + s * wordSize);
        st.numSrc = 2;
        st.src2 = pickSrcReg();
        RegIndex pr =
            draws_.ptrOp.draw(rng_) ? pickPtrReg() : RegIndex(0);
        if (pr) {
            st.src1 = pr;
            ringPush(cur().ptrSlots, st.memAddr);
            ptrWords_.insert(st.memAddr);
        } else {
            st.src1 = pickDataReg();
            ptrWords_.erase(st.memAddr);
        }
        pending_.push_back(st);
    }
    return i;
}

Instruction
TraceGenerator::emitReturn()
{
    ThreadState &ts = cur();
    panic_if(ts.stack.empty(), "return with empty call stack");
    Frame f = ts.stack.back();
    ts.stack.pop_back();
    ts.sp = f.base + f.words * wordSize;

    // Slots in the dying frame no longer hold live pointers/taint.
    ringPrune(cur().ptrSlots, f.base, std::uint64_t(f.words) * wordSize);
    ringPrune(cur().taintSlots, f.base, std::uint64_t(f.words) * wordSize);
    eraseWordRange(f.base, std::uint64_t(f.words) * wordSize);

    Instruction i = make(InstClass::Return);
    i.frameBase = f.base;
    i.frameBytes = f.words * wordSize;
    i.mispredict = draws_.misp03.draw(rng_);
    return i;
}

Instruction
TraceGenerator::emitMalloc(bool allowFree, RegIndex forceDst)
{
    unsigned words =
        profile_.allocWordsMin +
        rng_.range(profile_.allocWordsMax - profile_.allocWordsMin + 1);

    // Reuse a freed block when possible (first fit, preferring blocks
    // this thread freed, as arena allocators do), else bump the cursor.
    Addr base = 0;
    std::size_t pick = freeList_.size();
    for (std::size_t k = 0; k < freeList_.size(); ++k) {
        if (freeList_[k].words < words)
            continue;
        if (freeList_[k].owner == curThread_) {
            pick = k;
            break;
        }
        if (pick == freeList_.size())
            pick = k;
    }
    if (pick < freeList_.size() &&
        (freeList_[pick].owner == curThread_ ||
         profile_.numThreads == 1)) {
        base = freeList_[pick].base;
        freeList_[pick] = freeList_.back();
        freeList_.pop_back();
    }
    if (base == 0) {
        base = heapCursor_;
        heapCursor_ += words * wordSize;
        fatal_if(heapCursor_ >= heapLimit,
                 "synthetic heap exhausted; lower mallocRate");
    }

    bool ptrPool = draws_.ptrAlloc.draw(rng_);
    liveAllocs_.push_back({base, words, 0, curThread_, ptrPool});
    eraseWordRange(base, std::uint64_t(words) * wordSize);

    Instruction i = make(InstClass::HighLevel);
    i.hlKind = EventKind::Malloc;
    i.frameBase = base;
    i.frameBytes = words * wordSize;
    i.hasDst = true;
    i.dst = forceDst ? forceDst : pickDstReg();
    if (forceDst)
        cur().regPtr[forceDst] = true;
    else
        noteWrite(i.dst, true, false);

    // Allocator bookkeeping runs between the malloc event and the
    // first initialization store (free-list search, header setup);
    // by the time the stores arrive, the monitor's malloc handler has
    // marked the region allocated.
    for (unsigned k = 0; k < 28; ++k)
        pending_.push_back(makeAlu(k % 3 != 0));

    // Initialize a prefix of the allocation.
    unsigned initWords = unsigned(profile_.initStoreFrac * words);
    initWords = std::min(initWords, 64u);
    Alloc &a = liveAllocs_.back();
    for (unsigned w = 0; w < initWords; ++w) {
        Instruction st = make(InstClass::Store);
        st.memAddr = base + w * wordSize;
        st.numSrc = 2;
        st.src1 = pickSrcReg();
        st.src2 = pickSrcReg();
        pending_.push_back(st);
    }
    a.initWords = initWords;

    if (allowFree && draws_.free_.draw(rng_)) {
        std::uint64_t due =
            emitted_ +
            rng_.geometric(1.0 / profile_.allocLifetimeMean, 1u << 22);
        pendingFrees_.push({due, base});
    }
    return i;
}

Instruction
TraceGenerator::emitFree(Addr base)
{
    unsigned words = 0;
    for (std::size_t k = 0; k < liveAllocs_.size(); ++k) {
        if (liveAllocs_[k].base == base) {
            words = liveAllocs_[k].words;
            liveAllocs_[k] = liveAllocs_.back();
            liveAllocs_.pop_back();
            break;
        }
    }
    if (words == 0) {
        // Already recycled (should not happen); emit a nop instead.
        return make(InstClass::Nop);
    }
    if (freeList_.size() < 256)
        freeList_.push_back({base, words, curThread_});
    for (auto &ts : threads_) {
        ringPrune(ts.ptrSlots, base, std::uint64_t(words) * wordSize);
        ringPrune(ts.taintSlots, base, std::uint64_t(words) * wordSize);
        // A stride-1 heap walk established inside this block must not
        // continue into it after the free: that is exactly the kind of
        // use-after-free a clean stream may not contain.
        Addr end = base + std::uint64_t(words) * wordSize;
        if (ts.heapRun.next >= base && ts.heapRun.next < end)
            ts.heapRun = {};
    }
    eraseWordRange(base, std::uint64_t(words) * wordSize);

    Instruction i = make(InstClass::HighLevel);
    i.hlKind = EventKind::Free;
    i.frameBase = base;
    i.frameBytes = words * wordSize;

    pending_.push_back(makeAlu(true));
    return i;
}

Instruction
TraceGenerator::emitTaintSource()
{
    // Taint an input buffer: a live allocation prefix, else globals.
    Addr base;
    unsigned words = profile_.taintBufWords;
    if (!liveAllocs_.empty()) {
        Alloc &a = liveAllocs_[rng_.range(unsigned(liveAllocs_.size()))];
        words = std::min(words, a.words);
        base = a.base;
        a.initWords = std::max(a.initWords, words);
        a.noWalk = true; // IO buffer: only explicit taint ops touch it
    } else {
        base = pickGlobalAddr() & ~Addr(63);
    }

    Instruction i = make(InstClass::HighLevel);
    i.hlKind = EventKind::TaintSource;
    i.frameBase = base;
    i.frameBytes = words * wordSize;

    for (unsigned w = 0; w < words; ++w) {
        taintWords_.insert(wordKey(base + w * wordSize));
        if (w < 32)
            ringPush(cur().taintSlots, base + w * wordSize);
    }
    taintLiveUntil_ = emitted_ + 20000;
    return i;
}

void
TraceGenerator::injectBug(TruthBits kind)
{
    switch (kind) {
      case truthAccessUnallocated: {
        Instruction ld = make(InstClass::Load);
        ld.memAddr = heapLimit - 0x1000;
        ld.numSrc = 1;
        ld.src1 = pickSrcReg();
        ld.hasDst = true;
        ld.dst = pickDstReg();
        ld.truth = truthAccessUnallocated;
        pending_.push_back(ld);
        break;
      }
      case truthUseUninit: {
        // Load an uninitialized heap word, then jump through it.
        Addr addr = 0;
        for (auto &a : liveAllocs_) {
            if (a.initWords < a.words) {
                addr = a.base + a.initWords * wordSize;
                break;
            }
        }
        if (addr == 0) {
            auto at = std::ptrdiff_t(pending_.size());
            Instruction m = emitMalloc(false);
            pending_.insert(std::size_t(at), m);
            addr = liveAllocs_.back().base +
                   liveAllocs_.back().initWords * wordSize;
        }
        Instruction ld = make(InstClass::Load);
        ld.memAddr = addr;
        ld.numSrc = 1;
        ld.src1 = pickSrcReg();
        ld.hasDst = true;
        ld.dst = 9;
        pending_.push_back(ld);
        Instruction jmp = make(InstClass::JumpInd);
        jmp.numSrc = 1;
        jmp.src1 = 9;
        jmp.truth = truthUseUninit;
        pending_.push_back(jmp);
        break;
      }
      case truthTaintedJump: {
        pending_.push_back(emitTaintSource());
        Addr src = cur().taintSlots.empty() ? globalBase
                                           : cur().taintSlots.back();
        Instruction ld = make(InstClass::Load);
        ld.memAddr = src;
        ld.numSrc = 1;
        ld.src1 = pickSrcReg();
        ld.hasDst = true;
        ld.dst = 9;
        pending_.push_back(ld);
        Instruction jmp = make(InstClass::JumpInd);
        jmp.numSrc = 1;
        jmp.src1 = 9;
        jmp.truth = truthTaintedJump;
        pending_.push_back(jmp);
        break;
      }
      case truthLeakDrop: {
        // Allocate, never free, then clobber the only pointer.
        auto at = std::ptrdiff_t(pending_.size());
        Instruction m = emitMalloc(false);
        RegIndex ptr = m.dst;
        pending_.insert(std::size_t(at), m);
        Instruction kill = make(InstClass::IntAlu);
        kill.numSrc = 2;
        kill.src1 = pickSrcReg();
        kill.src2 = pickSrcReg();
        kill.hasDst = true;
        kill.dst = ptr;
        kill.truth = truthLeakDrop;
        pending_.push_back(kill);
        cur().regPtr[ptr] = false;
        break;
      }
      case truthAtomViolation: {
        // Unserializable (R, remote W, R) interleaving on one word.
        Addr a = sharedBase_ ? sharedBase_ + 0x40
                             : globalBase + 0x40;
        ThreadId t0 = ThreadId(curThread_);
        ThreadId t1 = ThreadId((curThread_ + 1) %
                               std::max(2u, profile_.numThreads));
        Instruction r1 = make(InstClass::Load);
        r1.memAddr = a;
        r1.numSrc = 1;
        r1.src1 = 2;
        r1.hasDst = true;
        r1.dst = 3;
        r1.tid = t0;
        pending_.push_back(r1);
        Instruction w = make(InstClass::Store);
        w.memAddr = a;
        w.numSrc = 2;
        w.src1 = 4;
        w.src2 = 5;
        w.tid = t1;
        pending_.push_back(w);
        Instruction r2 = r1;
        r2.pc += 8;
        r2.truth = truthAtomViolation;
        pending_.push_back(r2);
        break;
      }
      default:
        break;
    }
}

InstSpan
TraceGenerator::fetchSpan(std::size_t max)
{
    span_.clear();
    while (span_.size() < max) {
        ++emitted_;
        if (!pending_.empty()) {
            span_.push_back(pending_.front());
            pending_.pop_front();
        } else {
            span_.push_back(synthFresh());
        }
    }
    return {span_.data(), span_.size()};
}

Instruction
TraceGenerator::synthFresh()
{
    maybeSwitchThread();
    maybeFlipPhase();

    // Due frees take priority so allocation lifetimes stay calibrated.
    if (!pendingFrees_.empty() && pendingFrees_.top().first <= emitted_) {
        Addr base = pendingFrees_.top().second;
        pendingFrees_.pop();
        return emitFree(base);
    }

    if (draws_.call.draw(rng_)) {
        unsigned depth = unsigned(cur().stack.size());
        double pReturn = double(depth) / (2.0 * profile_.targetDepth);
        if (depth > 1 && rng_.chance(pReturn))
            return emitReturn();
        if (depth < 64)
            return emitCall();
        return emitReturn();
    }

    if (draws_.malloc_.draw(rng_))
        return emitMalloc();

    if (profile_.taintSourceRate > 0 &&
        draws_.taintSrc.draw(rng_))
        return emitTaintSource();

    // Integer cut-point selection, bit-identical to the double cascade
    // it replaced (see DrawSet::mix*Cuts).
    const std::array<std::uint64_t, 7> &cuts =
        highPhase_ ? draws_.mixHighCuts : draws_.mixLowCuts;
    std::uint32_t x = rng_.next();
    if (x < cuts[0])
        return makeLoad();
    if (x < cuts[1])
        return makeStore();
    if (x < cuts[2])
        return makeAlu(draws_.aluImm.draw(rng_));
    if (x < cuts[3])
        return makeMul();
    if (x < cuts[4])
        return makeFp();
    if (x < cuts[5])
        return makeBranch();
    if (x < cuts[6])
        return makeJumpInd();
    return make(InstClass::Nop);
}

} // namespace fade
