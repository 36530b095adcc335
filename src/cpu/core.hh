/**
 * @file
 * Unified core timing model covering the paper's three design points
 * (Table 1): in-order 1-way, lean OoO 2-way/48-entry ROB, and aggressive
 * OoO 4-way/96-entry ROB, plus the fine-grained dual-threaded (SMT)
 * configuration used by the single-core monitoring system (Fig. 8(b)).
 *
 * The model dispatches up to `width` instructions per cycle into a
 * reorder buffer, computes each instruction's completion time from its
 * register dependences, execution latency, and data cache access, and
 * commits up to `width` completed instructions per cycle in order.
 * In-order cores additionally force monotonically non-decreasing issue
 * times in program order. Mispredicted branches stall fetch until the
 * branch resolves plus a redirect penalty. With two hardware threads the
 * fetch/dispatch and commit bandwidth is shared slot-by-slot round-robin
 * and the ROB is statically partitioned.
 */

#ifndef FADE_CPU_CORE_HH
#define FADE_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/source.hh"
#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace fade
{

/** Core microarchitecture parameters. */
struct CoreParams
{
    std::string name = "core";
    unsigned width = 4;
    unsigned robSize = 96;
    bool inOrder = false;
    /** Fetch redirect penalty after a mispredicted branch resolves. */
    unsigned mispredictPenalty = 8;
};

/** Table 1 presets. */
CoreParams inOrderParams();
CoreParams leanOooParams();
CoreParams aggressiveOooParams();

/** Per-hardware-thread statistics. */
struct ThreadStats
{
    /** Cycles a completed head-of-ROB was refused by the commit sink. */
    std::uint64_t sinkStallCycles = 0;
    /** Cycles with an empty ROB and no instruction supplied. */
    std::uint64_t idleCycles = 0;
};

/**
 * Closed-form per-thread timing recurrence of the run-grain engine
 * (Engine::RunGrain, system/rungrain.hh). Models the same pipeline
 * resources as Core — dispatch/commit width, a partitioned ROB,
 * register dependences, in-order issue coupling, branch-redirect
 * stalls, commit-sink backpressure — but advances a whole instruction
 * run by recurrence instead of cycle-by-cycle state transitions. For
 * instruction k with width W and ROB partition R:
 *
 *   d_k = max(d_{k-1}, d_{k-W} + 1, redirect, c_{k-R})     dispatch
 *   e_k = max(d_k + 1, ready(srcs) [, e_{k-1} if in-order]) issue
 *   r_k = e_k + latency                                     complete
 *   c_k = max(r_k, c_{k-1}, c_{k-W} + 1, sinkGate)          commit
 *
 * The rings holding the last R commit and last W dispatch times are
 * the entire state: one instruction costs O(1) regardless of how many
 * cycles it spans. Each hardware thread gets dedicated width (the
 * per-cycle engine shares slots round-robin between SMT threads),
 * which is the engine's one structural timing divergence on
 * dual-threaded cores (docs/ARCHITECTURE.md, "Run-grain engine").
 */
class RunGrainThread
{
  public:
    /** Timing of one retired instruction. */
    struct Retire
    {
        Cycle dispatched = 0;
        Cycle ready = 0;
        Cycle committed = 0;
        /** Cycles dispatch waited on the full ROB partition. */
        std::uint64_t robWait = 0;
        /** Cycles dispatch waited on a branch redirect. */
        std::uint64_t fetchWait = 0;
        /** Cycles commit waited on the sink gate past readiness. */
        std::uint64_t sinkWait = 0;
    };

    /** Bind the model to a core geometry and a ROB partition size. */
    void configure(const CoreParams &p, unsigned robPartition);

    /**
     * Advance the recurrence by one instruction.
     * @param inst      the retiring instruction
     * @param execLat   execution latency (Core::runGrainExecLatency)
     * @param fetchGate earliest dispatch cycle (source availability)
     * @param sinkGate  earliest commit cycle (queue backpressure)
     */
    Retire retire(const Instruction &inst, unsigned execLat,
                  Cycle fetchGate, Cycle sinkGate);

    Cycle lastCommit() const { return lastCommit_; }
    std::uint64_t retired() const { return count_; }

  private:
    unsigned width_ = 1;
    unsigned robCap_ = 1;
    bool inOrder_ = false;
    unsigned mispredictPenalty_ = 0;
    /** Commit times of the last robCap_ instructions (ring, k mod R). */
    std::vector<Cycle> commitRing_;
    /** Dispatch times of the last width_ instructions (ring, k mod W). */
    std::vector<Cycle> dispatchRing_;
    /** Ring cursors maintained incrementally so the per-retire hot
     *  path never divides: count_ mod R, (count_ - W) mod R, and
     *  count_ mod W (identical to the mod expressions they replace). */
    unsigned robIdx_ = 0;
    unsigned robLagIdx_ = 0;
    unsigned wIdx_ = 0;
    std::array<Cycle, numArchRegs> regReady_{};
    Cycle lastIssue_ = 0;
    Cycle fetchStallUntil_ = 0;
    Cycle lastDispatch_ = 0;
    Cycle lastCommit_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A core with one or two hardware threads sharing its pipeline.
 */
class Core
{
  public:
    /**
     * @param p    microarchitecture parameters
     * @param l1d  private L1 data cache (loads/stores consult it)
     */
    Core(const CoreParams &p, Cache *l1d);

    /**
     * Attach a hardware thread.
     * @return the hardware thread index.
     */
    unsigned addThread(InstSource *src, CommitSink *sink);

    /** Advance one cycle. */
    void tick(Cycle now);

    unsigned numThreads() const { return unsigned(threads_.size()); }
    const CoreParams &params() const { return params_; }
    const ThreadStats &threadStats(unsigned t) const;

    /**
     * Run-grain engine support: the execution latency dispatchInst()
     * would compute for @p inst, with the identical data-cache access
     * (loads probe the L1d for their latency; stores keep the tags
     * warm and complete through the store buffer in one cycle). The
     * cache state evolves exactly as a per-cycle dispatch would evolve
     * it; only the cycle the access lands on is modeled.
     */
    unsigned runGrainExecLatency(const Instruction &inst);

    /** Run-grain engine support: mutable per-thread statistics, for
     *  batch-applying modeled condition counters. */
    ThreadStats &runGrainThreadStats(unsigned t);

    /** The thread's ROB partition (run-grain model geometry). */
    unsigned robPartition() const { return robCap_; }

    /** Every thread's ROB is empty. Sources are not consulted: the
     *  caller checks its own source for work. */
    bool drained() const;

    void resetStats();

  private:
    struct RobEntry
    {
        Instruction inst;
        Cycle readyAt = 0;
    };

    /** Spare regReady slots: noReg always reads 0 and stands in for
     *  a missing source operand; sinkReg absorbs the write of an
     *  instruction without a destination. */
    static constexpr unsigned noReg = numArchRegs;
    static constexpr unsigned sinkReg = numArchRegs + 1;

    struct HwThread
    {
        InstSource *src = nullptr;
        CommitSink *sink = nullptr;
        /** Reorder buffer: bounded FIFO in one contiguous ring (sized
         *  once in addThread; never reallocates afterwards). */
        RingDeque<RobEntry> rob;
        std::array<Cycle, numArchRegs + 2> regReady{};
        /** In-order cores: issue time of the previously dispatched op. */
        Cycle lastIssue = 0;
        /** Fetch stalled until this cycle (branch redirect). */
        Cycle fetchStallUntil = 0;
        ThreadStats stats;
    };

    bool tryCommitOne(HwThread &t, Cycle now);
    bool tryDispatchOne(HwThread &t, Cycle now);
    /** Issue @p inst on @p t at cycle @p now: update the thread's
     *  register and fetch timing and return the completion cycle. */
    Cycle dispatchInst(HwThread &t, Cycle now, const Instruction &inst);
    /**
     * Share the cycle's width between the two threads, starting at
     * @p first: alternate while both succeed; the first thread whose
     * @p tryOne fails closes, and the other then takes the remaining
     * slots until it fails or the width is spent.
     */
    template <typename TryOne>
    void shareSlots(unsigned first, TryOne tryOne);

    CoreParams params_;
    Cache *l1d_;
    std::vector<HwThread> threads_;
    /** Two-thread cores: the thread offered the first commit and the
     *  first dispatch slot this cycle (flips every cycle). */
    unsigned firstThread_ = 0;
    /** robSize / numThreads, cached off the per-cycle paths. */
    unsigned robCap_ = 0;
};

} // namespace fade

#endif // FADE_CPU_CORE_HH
