/**
 * @file
 * TaintCheck (Newsome & Song): dynamic taint analysis detecting
 * overwrite-based security exploits. Critical metadata: one taint bit
 * per application word/register. Taint enters through instrumented
 * input routines (TaintSource events), propagates through loads,
 * stores, and arithmetic, and an alert fires when an indirect jump
 * target is tainted.
 */

#ifndef FADE_MONITOR_TAINTCHECK_HH
#define FADE_MONITOR_TAINTCHECK_HH

#include "monitor/monitor.hh"

namespace fade
{

/** Propagation-tracking monitor: taint-flow analysis. */
class TaintCheck : public Monitor
{
  public:
    static constexpr std::uint8_t mdUntainted = 0x00;
    static constexpr std::uint8_t mdTainted = 0x01;

    const char *name() const override { return "TaintCheck"; }
    std::uint8_t shadowDefault() const override { return mdUntainted; }

    bool monitored(const Instruction &inst) const override;
    void programFade(EventTable &table, InvRegFile &inv) const override;
    void handleEvent(const UnfilteredEvent &u, MonitorContext &ctx) override;
    void buildHandlerSeq(const UnfilteredEvent &u, const MonitorContext &ctx,
                         std::vector<Instruction> &out) const override;
    HandlerClass instHandlerClass(const UnfilteredEvent &u,
                                  const MonitorContext &ctx) const override;
};

} // namespace fade

#endif // FADE_MONITOR_TAINTCHECK_HH
