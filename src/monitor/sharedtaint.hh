/**
 * @file
 * SharedTaint: inter-thread taint propagation for multi-threaded
 * process workloads (trace/threads.hh) — taint published into the
 * shared heap by one thread and observed by another. Shadow bytes hold
 * the taint bit per word (sources set it, plain stores clear it);
 * detection runs as the canonical log analysis at finish()
 * (monitor/interleave.hh), merging per-thread logs along the
 * synchronization order so reports are identical for every placement
 * of threads onto shards.
 */

#ifndef FADE_MONITOR_SHAREDTAINT_HH
#define FADE_MONITOR_SHAREDTAINT_HH

#include "monitor/interleave.hh"

namespace fade
{

/** Cross-thread taint flow detector. */
class SharedTaint : public ProcessMonitorBase
{
  public:
    /** Tainted bit in the per-word metadata byte. */
    static constexpr std::uint8_t mdTainted = 0x01;

    const char *name() const override { return "SharedTaint"; }
    std::uint8_t shadowDefault() const override { return 0; }

    bool monitored(const Instruction &inst) const override;
    void programFade(EventTable &table, InvRegFile &inv) const override;
    void handleEvent(const UnfilteredEvent &u, MonitorContext &ctx) override;
    void buildHandlerSeq(const UnfilteredEvent &u, const MonitorContext &ctx,
                         std::vector<Instruction> &out) const override;
    void finish() override;

    /** Functional shadow observations (tests): tainted words read. */
    std::uint64_t taintedReads = 0;
};

} // namespace fade

#endif // FADE_MONITOR_SHAREDTAINT_HH
