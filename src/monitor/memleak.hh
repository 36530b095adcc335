/**
 * @file
 * MemLeak (Maebe et al.): precise memory-leak detection via reference
 * counting. Critical metadata: the pointer/non-pointer status of each
 * register and memory word. Non-critical metadata: a pointer to the
 * corresponding malloc's context (unique ID, PC, reference counter). A
 * leak is reported the moment the last reference to an unfreed
 * allocation disappears. FADE filters events whose operands are all
 * non-pointers through clean checks.
 */

#ifndef FADE_MONITOR_MEMLEAK_HH
#define FADE_MONITOR_MEMLEAK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "monitor/monitor.hh"
#include "sim/flatset.hh"

namespace fade
{

/** Propagation-tracking monitor: leak detection by reference counting. */
class MemLeak : public Monitor
{
  public:
    static constexpr std::uint8_t mdNonPointer = 0x00;
    static constexpr std::uint8_t mdPointer = 0x01;

    /** Allocation context (the paper's per-malloc bookkeeping). */
    struct AllocCtx
    {
        std::uint32_t id = 0;
        Addr pc = 0;
        Addr base = 0;
        std::uint32_t len = 0;
        std::int64_t refs = 0;
        bool freed = false;
        bool leakReported = false;
    };

    const char *name() const override { return "MemLeak"; }
    std::uint8_t shadowDefault() const override { return mdNonPointer; }

    bool monitored(const Instruction &inst) const override;
    void programFade(EventTable &table, InvRegFile &inv) const override;
    void handleEvent(const UnfilteredEvent &u, MonitorContext &ctx) override;
    void buildHandlerSeq(const UnfilteredEvent &u, const MonitorContext &ctx,
                         std::vector<Instruction> &out) const override;

    /** Allocation contexts created so far (inspection / tests). */
    const std::vector<AllocCtx> &contexts() const { return ctxs_; }
    std::uint64_t leaksDetected() const { return leaks_; }

  private:
    std::uint32_t ctxOfSlot(Addr appAddr) const;
    void setSlotCtx(Addr appAddr, std::uint32_t id);
    void setRegCtx(ThreadId tid, RegIndex r, std::uint32_t id);
    void incRef(std::uint32_t id);
    void decRef(std::uint32_t id, const MonEvent &ev);

    std::vector<AllocCtx> ctxs_; ///< index = id - 1
    /** Word -> owning allocation context (flat: probed per event). */
    AddrMap<std::uint32_t> slotCtx_;
    AddrMap<std::uint32_t> baseToCtx_;
    std::array<std::array<std::uint32_t, numArchRegs>, maxThreads>
        regCtx_{};
    std::uint64_t leaks_ = 0;
};

} // namespace fade

#endif // FADE_MONITOR_MEMLEAK_HH
