/**
 * @file
 * AddrCheck (Nethercote & Seward): checks that every memory access
 * touches an allocated region. Critical metadata: one allocated bit per
 * application word. FADE filters accesses to allocated data through
 * clean checks; the paper reports a 99.5% filtering ratio and a 1.2x
 * average accelerated slowdown.
 */

#ifndef FADE_MONITOR_ADDRCHECK_HH
#define FADE_MONITOR_ADDRCHECK_HH

#include "monitor/monitor.hh"

namespace fade
{

/** Memory-tracking monitor: allocation checking. */
class AddrCheck : public Monitor
{
  public:
    /** Metadata encodings. */
    static constexpr std::uint8_t mdUnallocated = 0;
    static constexpr std::uint8_t mdAllocated = 1;

    const char *name() const override { return "AddrCheck"; }
    std::uint8_t shadowDefault() const override { return mdUnallocated; }

    bool monitored(const Instruction &inst) const override;
    void programFade(EventTable &table, InvRegFile &inv) const override;
    void initShadow(MonitorContext &ctx,
                    const WorkloadLayout &l) const override;
    void handleEvent(const UnfilteredEvent &u, MonitorContext &ctx) override;
    void buildHandlerSeq(const UnfilteredEvent &u, const MonitorContext &ctx,
                         std::vector<Instruction> &out) const override;
    HandlerClass instHandlerClass(const UnfilteredEvent &u,
                                  const MonitorContext &ctx) const override;
};

} // namespace fade

#endif // FADE_MONITOR_ADDRCHECK_HH
