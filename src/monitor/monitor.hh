/**
 * @file
 * Base class for instruction-grain monitors (lifeguards). A monitor
 * defines: which instructions are monitored (producer-side selection),
 * how FADE is programmed for it (event table + INV RF contents), the
 * functional software handlers that maintain metadata and detect bugs,
 * and the handler instruction sequences executed on the monitor core's
 * timing model.
 */

#ifndef FADE_MONITOR_MONITOR_HH
#define FADE_MONITOR_MONITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/event_table.hh"
#include "core/regfiles.hh"
#include "isa/event.hh"
#include "isa/instruction.hh"
#include "isa/layout.hh"
#include "monitor/context.hh"

namespace fade
{

struct ProcessShared;

/** A detected bug / security alert. */
struct BugReport
{
    std::string kind;
    Addr pc = 0;
    Addr addr = 0;
    std::uint64_t seq = 0;
    std::string detail;
};

/** Handler classes for the Fig. 4(a) execution-time breakdown. */
enum class HandlerClass : std::uint8_t
{
    CheckOnly,   ///< clean-check style handler (no metadata update)
    Update,      ///< performs metadata updates (redundant-update style)
    StackUpdate, ///< bulk frame metadata initialization
    HighLevel,   ///< malloc / free / taint-source handling
};

/**
 * Abstract monitor. Subclasses implement the seven lifeguards: the five
 * evaluated in the paper (Section 6) — AddrCheck, MemCheck, TaintCheck,
 * MemLeak and AtomCheck — and the cross-shard thread monitors RaceCheck
 * and SharedTaint. A lifeguard states its event selection once
 * (monitored()) and its handler once (buildHandlerSeq() plus, for
 * instruction events, instHandlerClass()).
 */
class Monitor
{
  public:
    virtual ~Monitor() = default;

    virtual const char *name() const = 0;

    /** Default (unmapped) shadow metadata byte. */
    virtual std::uint8_t shadowDefault() const = 0;

    /** Initial critical metadata of architectural registers. */
    virtual std::uint8_t regMdInit() const { return shadowDefault(); }

    /**
     * Producer-side event selection: true when the retired instruction
     * generates a monitored event (Section 3.1). High-level pseudo
     * instructions query this too.
     */
    virtual bool monitored(const Instruction &inst) const = 0;

    /** Batch event selection (the run-grain span path): write the
     *  monitored() verdict of each of @p n instructions into @p out
     *  (1 = monitored). */
    void
    monitoredSpan(const Instruction *insts, std::size_t n,
                  std::uint8_t *out) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = monitored(insts[i]) ? 1 : 0;
    }

    /** Program the event table and INV RF for this monitor. */
    virtual void programFade(EventTable &table, InvRegFile &inv) const = 0;

    /**
     * Establish the startup metadata state: globals and the initial
     * stack frames have been allocated/initialized by the loader and
     * startup code before monitoring begins.
     */
    virtual void
    initShadow(MonitorContext &ctx, const WorkloadLayout &l) const
    {
        (void)ctx;
        (void)l;
    }

    /**
     * Functional software handler: apply the canonical metadata
     * transition for the event and report any detected bug. Called when
     * the handler completes on the monitor core (and for every
     * monitored event in unaccelerated systems). Must be idempotent
     * with respect to hardware-filtered events: a filtered event's
     * transition never changes metadata.
     */
    virtual void handleEvent(const UnfilteredEvent &u,
                             MonitorContext &ctx) = 0;

    /**
     * Append the handler's dynamic instruction sequence for the monitor
     * core's timing model. When @p u.hwChecked is false (unaccelerated
     * system) the sequence includes the software check path that FADE
     * would otherwise elide.
     */
    virtual void buildHandlerSeq(const UnfilteredEvent &u,
                                 const MonitorContext &ctx,
                                 std::vector<Instruction> &out) const = 0;

    /**
     * Start the software handler for @p u: append its dynamic
     * instruction sequence to @p out (buildHandlerSeq) and return its
     * class for the Fig. 4(a) time breakdown. Stack-update and
     * high-level handlers are classified here, an instruction event's
     * handler by instHandlerClass().
     */
    HandlerClass
    prepareHandler(const UnfilteredEvent &u, const MonitorContext &ctx,
                   std::vector<Instruction> &out) const
    {
        buildHandlerSeq(u, ctx, out);
        if (u.ev.isStackUpdate())
            return HandlerClass::StackUpdate;
        if (u.ev.isHighLevel())
            return HandlerClass::HighLevel;
        return instHandlerClass(u, ctx);
    }

    /** Class of an instruction event's handler: a metadata update
     *  unless the lifeguard says otherwise. */
    virtual HandlerClass
    instHandlerClass(const UnfilteredEvent &u, const MonitorContext &ctx) const
    {
        (void)u;
        (void)ctx;
        return HandlerClass::Update;
    }

    /**
     * A software thread switch occurred (time-sliced multithreaded
     * workloads). AtomCheck updates the current-thread INV register.
     */
    virtual void
    onThreadSwitch(ThreadId tid, InvRegFile *inv)
    {
        (void)tid;
        (void)inv;
    }

    /** End of run (the thread monitors' log analysis). */
    virtual void finish() {}

    /**
     * Bind the per-process shared state of a multi-threaded workload
     * (monitor/interleave.hh). Called by MultiCoreSystem after
     * construction for monitors of process-mode workloads; @p shardId /
     * @p numShards tell the monitor which threads it hosts (thread t
     * lives on shard t % numShards). Monitors of single-threaded
     * workloads ignore it.
     */
    virtual void
    bindProcess(ProcessShared *ps, unsigned shardId, unsigned numShards)
    {
        (void)ps;
        (void)shardId;
        (void)numShards;
    }

    const std::vector<BugReport> &reports() const { return reports_; }

  protected:
    void
    report(std::string kind, const MonEvent &ev, std::string detail = "")
    {
        BugReport r;
        r.kind = std::move(kind);
        r.pc = ev.appPc;
        r.addr = ev.appAddr;
        r.seq = ev.seq;
        r.detail = std::move(detail);
        reports_.push_back(std::move(r));
    }

    /** Deposit a fully-built report (analyses that construct reports
     *  with placement-invariant fields rather than from an event). */
    void deposit(BugReport r) { reports_.push_back(std::move(r)); }

  private:
    std::vector<BugReport> reports_;
};

} // namespace fade

#endif // FADE_MONITOR_MONITOR_HH
