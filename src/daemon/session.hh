/**
 * @file
 * One daemon session: a client-supplied monitoring experiment — full
 * knob matrix (profile x monitor x shard count x scheduler policy x
 * engine x topology), live-generated or replayed from an uploaded
 * .ftrace — validated, built into a MultiCoreSystem, and run start to
 * finish on its connection's thread in bounded quanta.
 *
 * Validation happens here, before any simulator object exists, since
 * fatal()/panic() end the process: the daemon's own rules (wire values;
 * caps on shards, profiles, budget and sliceTicks; profile names;
 * RaceCheck/SharedTaint need a -mt workload), then validateConfig()
 * (system/multicore.hh) for the system's; a failure is a typed
 * SessionReject. A config that passes sessionPlan() cannot reach a
 * fatal().
 *
 * Isolation argument, step by step: a session builds its entire
 * simulator (MultiCoreSystem, monitors, workload generators, trace
 * reader) on its own thread and shares nothing mutable with other
 * sessions; and the resumable phase protocol
 * (MultiCoreSystem::beginWarmup/beginMeasure/advanceRun) executes
 * exactly the epochs the monolithic warmup()/run() calls would have.
 * Hence a session's fingerprints are bit-identical to a standalone run
 * of the same plan (standaloneRun()), no matter how many sessions the
 * daemon runs at once — the property tests/test_daemon.cc enforces
 * differentially.
 */

#ifndef FADE_DAEMON_SESSION_HH
#define FADE_DAEMON_SESSION_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "daemon/protocol.hh"
#include "system/multicore.hh"

namespace fade::daemon
{

/** A session config that failed validation or admission; carries the
 *  typed reason the Rejected frame reports. */
class SessionReject : public std::runtime_error
{
  public:
    SessionReject(Reason r, const std::string &msg)
        : std::runtime_error(msg), reason(r)
    {}

    const Reason reason;
};

/** Hard per-session resource bounds enforced by sessionPlan(). */
constexpr unsigned maxSessionShards = 64;
constexpr std::uint64_t maxSessionInstructions = 4'000'000;
constexpr std::uint64_t maxUploadBytes = 64u << 20;

/** A validated session: the system configuration plus the instruction
 *  budget to drive it with. */
struct SessionPlan
{
    MultiCoreConfig cfg;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
};

/**
 * Validate @p wc and map it to a runnable plan. @p tracePath names the
 * uploaded .ftrace file when wc.upload is set (the manifest supplies
 * the instruction budget and system shape, with wc's policy/engine/
 * sliceTicks applied as result-invariant overrides). Throws
 * SessionReject (BadConfig or BadTrace) on anything invalid; never
 * reaches a fatal().
 */
SessionPlan sessionPlan(const WireSessionConfig &wc,
                        const std::string &tracePath = "");

/**
 * Run @p wc's plan monolithically (plain warmup() + run()) and return
 * the same ResultInfo a daemon session produces, minus the scheduling
 * telemetry (quanta/parks/completionSeq stay 0). The differential
 * tests and `faded_client --check` compare daemon results against
 * this bit for bit.
 */
ResultInfo standaloneRun(const WireSessionConfig &wc,
                         const std::string &tracePath = "");

/** Slice epochs a session runs between two looks at its socket; a
 *  quantum that does not end the run ends with a Progress frame.
 *  Results do not depend on it (ShardScheduler::stepEpochs). */
constexpr std::uint64_t sessionQuantumEpochs = 8;

/**
 * A configured session: its validated plan and, for an upload, the
 * trace file it owns (unlinked in the destructor). run() executes it
 * on the calling thread, which is the thread of its connection.
 */
class Session
{
  public:
    /** Validates @p wc (throws SessionReject). @p tracePath is the
     *  uploaded trace file, owned by the session from here on; "" for
     *  live sessions. */
    Session(const WireSessionConfig &wc, const std::string &tracePath);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Build the system and drive warmup and measure in quanta of
     * sessionQuantumEpochs, writing a Progress frame to the client on
     * @p fd after each quantum that does not end the run. Before each
     * quantum the run ends if @p abort is set or the client hung up or
     * sent anything. The system is torn down before this returns.
     * @return the body of the session's last frame: its Result
     * (numbered by @p completions), or a typed Error when it failed
     * mid-run (a corrupt uploaded block surfacing lazily, any
     * unexpected exception) — the session fails, the daemon does not;
     * empty when the run was ended early. Throws ProtocolError when a
     * write fails.
     */
    std::vector<std::uint8_t>
    run(int fd, const std::atomic<bool> &abort,
        std::atomic<std::uint64_t> &completions) const;

  private:
    SessionPlan plan_;
    std::string tracePath_;
};

} // namespace fade::daemon

#endif // FADE_DAEMON_SESSION_HH
