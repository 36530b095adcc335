/**
 * @file
 * MemCheck (Nethercote & Seward): extends AddrCheck to detect uses of
 * uninitialized values. Critical metadata: two bits per application
 * word/register — allocated (bit 0) and initialized (bit 1) — giving
 * the three states the paper names (unallocated, uninitialized,
 * initialized). FADE performs clean checks for legitimate accesses and
 * filters redundant updates when metadata remain unchanged.
 */

#ifndef FADE_MONITOR_MEMCHECK_HH
#define FADE_MONITOR_MEMCHECK_HH

#include "monitor/monitor.hh"

namespace fade
{

/** Propagation-tracking monitor: definedness checking. */
class MemCheck : public Monitor
{
  public:
    static constexpr std::uint8_t mdUnallocated = 0x00;
    static constexpr std::uint8_t mdUninit = 0x01;
    static constexpr std::uint8_t mdInit = 0x03;

    const char *name() const override { return "MemCheck"; }
    std::uint8_t shadowDefault() const override { return mdUnallocated; }
    std::uint8_t regMdInit() const override { return mdInit; }

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

#endif // FADE_MONITOR_MEMCHECK_HH
