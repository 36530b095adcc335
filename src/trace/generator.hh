/**
 * @file
 * Synthetic workload generator: produces a semantically coherent,
 * deterministic dynamic instruction stream from a benchmark profile.
 * The generator maintains a functional program skeleton — a call stack
 * with frames, live heap allocations, registers and memory slots known
 * to hold pointers or tainted data — so that the event stream the
 * monitors observe is self-consistent (pointers really flow from
 * mallocs, taint really flows from taint sources, loads really target
 * allocated and initialized data).
 *
 * Bug injection: tests and examples call injectBug() to splice a
 * deliberate violation into the stream; the offending instruction
 * carries a ground-truth oracle bit that monitors never see.
 */

#ifndef FADE_TRACE_GENERATOR_HH
#define FADE_TRACE_GENERATOR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "cpu/source.hh"
#include "isa/instruction.hh"
#include "isa/layout.hh"
#include "sim/random.hh"
#include "sim/ring.hh"
#include "sim/wordset.hh"
#include "trace/profile.hh"

namespace fade
{

/** Deterministic synthetic instruction stream for one benchmark. */
class TraceGenerator : public InstSource
{
  public:
    explicit TraceGenerator(const BenchProfile &profile);

    /** The stream never runs dry: the next fetchSpan(n) serves all
     *  n. Nothing is synthesized here. */
    std::size_t stageRun(std::size_t n) override { return n; }

    /**
     * Synthesize the next @p max instructions into the span buffer,
     * each counted into emitted_ as it is produced: a pending splice
     * (allocator bookkeeping, init stores, spills, injected bugs) is
     * served before any fresh synthesis, and fresh synthesis may queue
     * new splices. This is the only synthesis loop, so the stream is
     * the same whatever span sizes the consumer asks for.
     */
    InstSpan fetchSpan(std::size_t max) override;

    /** Splice an injected bug into the upcoming stream: the next
     *  fetchSpan() serves it ahead of fresh synthesis. */
    void injectBug(TruthBits kind);

    /** Startup memory ranges for Monitor::initShadow. */
    const WorkloadLayout &layout() const { return layout_; }

    const BenchProfile &profile() const { return profile_; }
    std::uint64_t emitted() const { return emitted_; }

    /** Ground-truth oracles (tests): current semantic register state. */
    bool regIsPtr(unsigned tid, RegIndex r) const
    {
        return threads_[tid].regPtr[r];
    }
    bool regIsTainted(unsigned tid, RegIndex r) const
    {
        return threads_[tid].regTaint[r];
    }
    /** Ground-truth oracle: does this word hold a pointer right now? */
    bool wordIsPtr(Addr a) const { return ptrWords_.contains(wordKey(a)); }
    bool wordIsTainted(Addr a) const
    {
        return taintWords_.contains(wordKey(a));
    }

    /** Canonical key of the word containing @p a: every
     *  ptrWords_/taintWords_ site stores and probes this form, so the
     *  mirrors cannot split one word across distinct keys. */
    static constexpr Addr wordKey(Addr a) { return a & ~Addr(3); }

    /** Ground-truth word mirrors (tests: alignment / coherence). */
    const WordSet &ptrWords() const { return ptrWords_; }
    const WordSet &taintWords() const { return taintWords_; }

    /**
     * Bounded ring of live slot addresses plus a conservative 16KB-
     * granule signature of everything ever pushed. Pruning a dead
     * range first tests the signature: ranges whose granules were
     * never pushed skip the scan (the common case — returns prune
     * stack granules while the rings mostly hold heap-pool slots).
     * Overwritten entries leave stale signature bits, so the signature
     * is a superset — skips are always sound — and each real scan
     * rebuilds it exactly from the survivors.
     */
    struct SlotRing
    {
        std::vector<Addr> v;
        std::uint64_t sig = 0;

        bool empty() const { return v.empty(); }
        std::size_t size() const { return v.size(); }
        Addr operator[](std::size_t i) const { return v[i]; }
        Addr back() const { return v.back(); }

        static std::uint64_t
        granuleBit(Addr a)
        {
            return std::uint64_t(1) << ((a >> 14) & 63);
        }

        static std::uint64_t
        rangeMask(Addr base, std::uint64_t len)
        {
            std::uint64_t g0 = base >> 14;
            std::uint64_t g1 = (base + (len ? len : 1) - 1) >> 14;
            if (g1 - g0 >= 63)
                return ~std::uint64_t(0);
            std::uint64_t mask = 0;
            for (std::uint64_t g = g0; g <= g1; ++g)
                mask |= std::uint64_t(1) << (g & 63);
            return mask;
        }
    };

  private:
    struct Frame
    {
        Addr base = 0;        ///< low address
        unsigned words = 0;   ///< frame size in words
        unsigned spilled = 0; ///< slots written so far
    };

    struct Alloc
    {
        Addr base = 0;
        unsigned words = 0;
        unsigned initWords = 0; ///< initialized prefix length
        unsigned owner = 0;     ///< allocating thread
        /** Pointer pool / IO buffer: excluded from plain data walks. */
        bool noWalk = false;
    };

    struct ThreadState
    {
        std::vector<Frame> stack;
        Addr sp = 0;
        std::array<bool, numArchRegs> regPtr{};
        std::array<bool, numArchRegs> regTaint{};
        std::vector<RegIndex> recentRegs;
        std::vector<Addr> recentShared;
        SlotRing ptrSlots;   ///< slots holding pointer values
        SlotRing taintSlots; ///< slots holding tainted data
        /** Active sequential-walk run (spatial locality model). */
        struct SeqRun
        {
            Addr next = 0;
            Addr end = 0;
        };
        SeqRun heapRun, globalRun;
        Addr pc = 0x1000;
        std::uint8_t rot = 0;
    };

    Instruction make(InstClass cls);
    Instruction makeLoad();
    Instruction makeStore();
    Instruction makeAlu(bool imm);
    Instruction makeMul();
    Instruction makeFp();
    Instruction makeBranch();
    Instruction makeJumpInd();
    Instruction emitCall();
    Instruction emitReturn();
    Instruction emitMalloc(bool allowFree = true, RegIndex forceDst = 0);
    Instruction emitFree(Addr base);
    Instruction emitTaintSource();

    /** Skewed random word index (defined inline below: called for
     *  nearly every generated memory reference). */
    unsigned randomWord(std::uint64_t limitWords);
    Addr pickStackAddr(bool forWrite);
    Addr pickHeapAddr(bool forWrite);
    /** A slot inside a pointer-bearing allocation (or stack). */
    Addr pickPtrStoreAddr();
    Addr pickGlobalAddr();
    Addr pickSharedAddr();
    Addr pickMemAddr(bool forWrite);

    RegIndex pickSrcReg();
    /** A recently-written register holding plain data (ordinary ops
     *  avoid pointer/taint registers; r1 is the always-data fallback). */
    RegIndex pickDataReg();
    RegIndex pickDstReg();
    /** A register currently holding a pointer, or 0 when none. When
     *  @p transientOnly, only rotating registers qualify (so dedicated
     *  base registers r28..r31 are never clobbered/dropped). */
    RegIndex pickPtrReg(bool transientOnly = false);
    /** A register currently holding tainted data, or 0 when none. */
    RegIndex pickTaintReg();
    void noteWrite(RegIndex r, bool isPtr, bool isTaint);

    bool taintActive() const { return emitted_ < taintLiveUntil_; }

    /** Current thread state (pointer cached across fetches: cur() runs
     *  ~10x per generated instruction). */
    ThreadState &cur() { return *cur_; }
    void
    setCurThread(unsigned t)
    {
        curThread_ = t;
        cur_ = &threads_[t];
    }
    void maybeSwitchThread();
    void maybeFlipPhase();

    BenchProfile profile_;
    Rng rng_;

    /**
     * Precompiled Bernoulli thresholds for the per-instruction draws —
     * exactly equivalent (same draw count, same verdicts) to
     * rng_.chance() of the corresponding profile fractions; see
     * sim/random.hh.
     */
    struct DrawSet
    {
        Bernoulli call, malloc_, taintSrc, taintOp, ptrOp, seq, hot,
            fresh, aluImm, prop, misp, mispHalf, misp03, highPhase,
            free_, ptrAlloc, half, p85, p25, p04, remote, shared;
        /**
         * Integer cut-points replacing the floating-point selection
         * cascades, computed in the constructor by binary-searching
         * the original double-arithmetic chain over all 2^32 draw
         * values (the chains are monotone in the draw): the selected
         * branch is identical for every possible draw, and exactly one
         * next() is consumed either way.
         */
        std::array<std::uint64_t, 7> mixHighCuts{}, mixLowCuts{};
        std::array<std::uint64_t, 2> memCuts{};
    };
    DrawSet draws_;

    std::vector<ThreadState> threads_;
    unsigned curThread_ = 0;
    ThreadState *cur_ = nullptr;
    unsigned sinceSwitch_ = 0;

    bool highPhase_ = true;
    std::uint64_t phaseLeft_ = 1000;

    std::vector<Alloc> liveAllocs_;
    struct FreeBlock
    {
        Addr base = 0;
        unsigned words = 0;
        unsigned owner = 0;
    };
    std::vector<FreeBlock> freeList_;
    Addr heapCursor_ = heapBase;
    using FreeDue = std::pair<std::uint64_t, Addr>;
    std::priority_queue<FreeDue, std::vector<FreeDue>,
                        std::greater<FreeDue>>
        pendingFrees_;

    std::uint64_t taintLiveUntil_ = 0;

    /**
     * Ground-truth critical metadata mirrors: the exact set of word
     * addresses currently holding pointer / tainted values. These keep
     * the generator's register hints coherent with what a monitor's
     * shadow propagation will compute from the event stream. Keys are
     * canonically word-aligned (wordKey); stored as paged word bitmaps
     * (sim/wordset.hh) — this is the hottest per-instruction
     * bookkeeping in the whole functional layer, and the bulk erases
     * on free/return want page-span clears, not per-word probes.
     */
    WordSet ptrWords_;
    WordSet taintWords_;

    void eraseWordRange(Addr base, std::uint64_t lenBytes);

    /** On-demand synthesis of one fresh instruction; the caller has
     *  already counted emitted_ and drained pending_. */
    Instruction synthFresh();

    RingDeque<Instruction> pending_;
    /** The span fetchSpan() hands out (valid until its next call). */
    std::vector<Instruction> span_;
    std::uint64_t emitted_ = 0;
    std::uint64_t seqTick_ = 0;

    WorkloadLayout layout_;
    std::uint64_t globalLen_ = 0;
    Addr sharedBase_ = 0;
    std::uint64_t sharedLen_ = 0;
};

// The helpers below run for (nearly) every generated instruction; they
// live in the header so the synthesis loop compiles into straight
// code instead of a chain of per-instruction calls. Their RNG draw
// sequences are part of the determinism contract — do not reorder.

inline RegIndex
TraceGenerator::pickSrcReg()
{
    ThreadState &ts = cur();
    if (ts.recentRegs.empty())
        return RegIndex(1 + rng_.range(26));
    unsigned w = std::min<unsigned>(profile_.ilpWindow,
                                    unsigned(ts.recentRegs.size()));
    return ts.recentRegs[ts.recentRegs.size() - 1 - rng_.range(w)];
}

inline RegIndex
TraceGenerator::pickDataReg()
{
    ThreadState &ts = cur();
    for (unsigned tries = 0; tries < 4; ++tries) {
        RegIndex r = pickSrcReg();
        if (!ts.regPtr[r] && !ts.regTaint[r])
            return r;
    }
    return 1;
}

inline RegIndex
TraceGenerator::pickDstReg()
{
    ThreadState &ts = cur();
    ts.rot = std::uint8_t(ts.rot % 26 + 1);
    return RegIndex(ts.rot + 1);
}

inline void
TraceGenerator::noteWrite(RegIndex r, bool isPtr, bool isTaint)
{
    ThreadState &ts = cur();
    ts.regPtr[r] = isPtr;
    ts.regTaint[r] = isTaint;
    ts.recentRegs.push_back(r);
    if (ts.recentRegs.size() > 32)
        ts.recentRegs.erase(ts.recentRegs.begin(),
                            ts.recentRegs.begin() + 16);
}

inline unsigned
TraceGenerator::randomWord(std::uint64_t limitWords)
{
    // Skewed reuse: most random accesses land in the hot prefix of the
    // region; the rest sweep the full footprint.
    std::uint64_t hot = (std::uint64_t(1) << profile_.hotWsLog2) / wordSize;
    if (hot < limitWords && draws_.hot.draw(rng_))
        return unsigned(rng_.next64() % hot);
    return unsigned(rng_.next64() % limitWords);
}

inline void
TraceGenerator::maybeSwitchThread()
{
    if (profile_.numThreads <= 1)
        return;
    if (++sinceSwitch_ >= profile_.switchQuantum) {
        sinceSwitch_ = 0;
        setCurThread((curThread_ + 1) % profile_.numThreads);
    }
}

inline void
TraceGenerator::maybeFlipPhase()
{
    if (phaseLeft_ > 0) {
        --phaseLeft_;
        return;
    }
    highPhase_ = draws_.highPhase.draw(rng_);
    phaseLeft_ = rng_.geometric(1.0 / profile_.phaseLenMean, 1u << 20);
}

} // namespace fade

#endif // FADE_TRACE_GENERATOR_HH
