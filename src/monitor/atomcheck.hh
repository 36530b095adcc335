/**
 * @file
 * AtomCheck (after AVIO, Lu et al.): detects atomicity violations by
 * checking access-interleaving invariants. Critical metadata: one byte
 * per application word holding an accessed bit (0x80) and the ID of the
 * last accessing thread (low bits). Non-critical metadata: the type
 * (read/write) of the last access by each thread, kept in per-thread
 * tables. FADE accommodates AtomCheck with Partial filtering: the
 * hardware checks whether the location was last referenced by the same
 * thread; a passing check dispatches a short update handler, a failing
 * check dispatches the interleaving-analysis handler.
 */

#ifndef FADE_MONITOR_ATOMCHECK_HH
#define FADE_MONITOR_ATOMCHECK_HH

#include <array>
#include <cstdint>

#include "monitor/monitor.hh"
#include "sim/flatset.hh"

namespace fade
{

/** Memory-tracking monitor: atomicity-violation detection. */
class AtomCheck : public Monitor
{
  public:
    /** Accessed-before flag in the metadata byte. */
    static constexpr std::uint8_t mdAccessed = 0x80;
    /** Thread-id mask in the metadata byte. */
    static constexpr std::uint8_t mdTidMask = 0x7f;

    /** Access types tracked per thread per location. */
    static constexpr std::uint8_t accNone = 0;
    static constexpr std::uint8_t accRead = 1;
    static constexpr std::uint8_t accWrite = 2;

    const char *name() const override { return "AtomCheck"; }
    std::uint8_t shadowDefault() const override { return 0; }

    bool monitored(const Instruction &inst) const override;
    void programFade(EventTable &table, InvRegFile &inv) const override;
    void handleEvent(const UnfilteredEvent &u, MonitorContext &ctx) override;
    void buildHandlerSeq(const UnfilteredEvent &u, const MonitorContext &ctx,
                         std::vector<Instruction> &out) const override;
    HandlerClass instHandlerClass(const UnfilteredEvent &u,
                                  const MonitorContext &ctx) const override;
    void onThreadSwitch(ThreadId tid, InvRegFile *inv) override;

    /**
     * AVIO's unserializable interleavings: for (previous local access
     * p, remote interleaving access r, current access c), the patterns
     * (R,W,R), (W,W,R), (W,R,W), and (R,W,W) cannot be serialized.
     */
    static bool unserializable(std::uint8_t p, std::uint8_t r,
                               std::uint8_t c);

    /** Functional check outcome counters (analysis / tests). */
    std::uint64_t sameThreadAccesses = 0;
    std::uint64_t firstAccesses = 0;
    std::uint64_t remoteAccesses = 0;

  private:
    struct LocState
    {
        std::array<std::uint8_t, maxThreads> lastType{};
    };

    /** Per-word last-access-type table (flat: probed on every
     *  unfiltered shared access). */
    AddrMap<LocState> locs_;
};

} // namespace fade

#endif // FADE_MONITOR_ATOMCHECK_HH
