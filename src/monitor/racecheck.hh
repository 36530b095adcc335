/**
 * @file
 * RaceCheck: happens-before + lockset data-race detection for
 * multi-threaded process workloads (trace/threads.hh), in the style of
 * FastTrack/Eraser. Monitored events — shared-heap accesses and the
 * synchronization pseudo-ops — are forwarded unfiltered (pure-dispatch
 * event table entries: ordering evidence can never be elided) and
 * logged into the process-wide per-thread logs; detection runs as the
 * canonical vector-clock analysis over those logs at finish()
 * (monitor/interleave.hh), so every placement of threads onto shards
 * produces bit-identical reports. Per-word shadow bytes track the last
 * accessor (accessed | tid), giving the FADE metadata path and the
 * handler timing model realistic cross-shard traffic through the home
 * directory.
 */

#ifndef FADE_MONITOR_RACECHECK_HH
#define FADE_MONITOR_RACECHECK_HH

#include "monitor/interleave.hh"

namespace fade
{

/** Cross-shard lockset/happens-before race detector. */
class RaceCheck : public ProcessMonitorBase
{
  public:
    /** Accessed-before flag in the per-word metadata byte. */
    static constexpr std::uint8_t mdAccessed = 0x80;

    const char *name() const override { return "RaceCheck"; }
    std::uint8_t shadowDefault() const override { return 0; }

    bool monitored(const Instruction &inst) const override;
    void programFade(EventTable &table, InvRegFile &inv) const override;
    void handleEvent(const UnfilteredEvent &u, MonitorContext &ctx) override;
    void buildHandlerSeq(const UnfilteredEvent &u, const MonitorContext &ctx,
                         std::vector<Instruction> &out) const override;
    void finish() override;
};

} // namespace fade

#endif // FADE_MONITOR_RACECHECK_HH
