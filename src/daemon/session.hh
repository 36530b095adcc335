/**
 * @file
 * One daemon session: a client-supplied monitoring experiment — full
 * knob matrix (profile x monitor x shard count x scheduler policy x
 * engine x topology), live-generated or replayed from an uploaded
 * .ftrace — validated, built into a MultiCoreSystem, and executed in
 * bounded quanta under the session pool.
 *
 * Validation happens here, before any simulator object exists, since
 * fatal()/panic() end the process: the daemon's own rules (wire values;
 * caps on shards, profiles, budget and sliceTicks; profile names;
 * RaceCheck/SharedTaint need a -mt workload), then validateConfig()
 * (system/multicore.hh) for the system's; a failure is a typed
 * SessionReject. A config that passes sessionPlan() cannot reach a
 * fatal().
 *
 * Isolation argument, step by step: a Session owns its entire
 * simulator (MultiCoreSystem, monitors, workload generators, trace
 * reader) and shares nothing mutable with other sessions; the pool
 * steps a session on at most one worker at a time, with the handoff
 * between workers synchronized by the pool's run-queue mutex; and the
 * resumable phase protocol (MultiCoreSystem::beginWarmup/
 * beginMeasure/advanceRun) executes exactly the epochs the monolithic
 * warmup()/run() calls would have. Hence a session's fingerprints are
 * bit-identical to a standalone run of the same plan
 * (standaloneRun()), no matter how many sessions the daemon
 * interleaves — the property tests/test_daemon.cc enforces
 * differentially.
 */

#ifndef FADE_DAEMON_SESSION_HH
#define FADE_DAEMON_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
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

/**
 * Bounded queue of sealed output frames between a session (producer:
 * the pool worker stepping it) and its connection's writer thread
 * (consumer). The bound is the backpressure mechanism: the pool
 * refuses to step a session whose queue is full, parking it until the
 * writer drains — a slow reader therefore stalls only its own
 * session's progress, never a pool worker.
 */
class OutQueue
{
  public:
    explicit OutQueue(std::size_t capacity) : cap_(capacity) {}

    /** Push a sealed frame if there is room. @return false when the
     *  queue is full (frame dropped; progress frames are advisory).
     *  Accepted-and-dropped (true) once the sink is gone. */
    bool tryPush(std::vector<std::uint8_t> frame);

    /** Push a sealed frame regardless of capacity (terminal
     *  Result/Bye/Error frames must not be lost to backpressure). */
    void forcePush(std::vector<std::uint8_t> frame);

    /** Producer is done; pop() returns false once drained. */
    void finish();

    /** Consumer is gone (client died): drop everything, present and
     *  future, and unblock any pop(). */
    void closeSink();

    /** Block for the next frame. @return false when the stream is
     *  over (finished and drained, or sink closed). */
    bool pop(std::vector<std::uint8_t> &frame);

    /** A tryPush would fail right now. */
    bool full() const;

  private:
    mutable std::mutex m_;
    std::condition_variable cv_;
    std::deque<std::vector<std::uint8_t>> q_;
    const std::size_t cap_;
    bool finished_ = false;
    bool closed_ = false;
};

/**
 * One configured experiment moving through build -> warmup -> measure
 * -> done in bounded quanta. step() is called by exactly one pool
 * worker at a time (pool run-queue discipline); everything else is
 * called from connection threads and touches only atomics and the
 * queue.
 */
class Session
{
  public:
    /**
     * Validates @p wc (throws SessionReject). @p tracePath is the
     * uploaded trace file, owned by the session from here on (unlinked
     * in the destructor); "" for live sessions.
     */
    Session(std::uint64_t id, const WireSessionConfig &wc,
            const std::string &tracePath,
            std::shared_ptr<OutQueue> out);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Advance by at most @p quantumEpochs slice epochs (building the
     * system counts as the first quantum). Emits an advisory Progress
     * frame per quantum and, on completion, force-pushes Result + Bye
     * and finishes the queue. Mid-run failures (a corrupt uploaded
     * block surfacing lazily, any unexpected exception) become a
     * typed Error frame — the session fails, the daemon does not.
     * @return true when the session reached a terminal state.
     */
    bool step(std::uint64_t quantumEpochs);

    /**
     * Tear the session down early (client died, forced shutdown): the
     * next step() discards the simulator and completes without
     * emitting frames. Safe from any thread, any time.
     */
    void abort();

    /** The session reached a terminal state (result flushed, failed,
     *  or torn down after an abort). */
    bool complete() const { return complete_.load(); }
    std::uint64_t id() const { return id_; }
    OutQueue &out() { return *out_; }

    /** Pool bookkeeping (sessionpool.cc). parked_ is guarded by the
     *  pool mutex; parks_ is read into the Result frame. */
    bool parked_ = false;
    std::atomic<std::uint64_t> parks_{0};

    /** Set at submission; completed sessions stamp their Result frame
     *  with the next value (1-based completion order). */
    void
    setCompletionCounter(std::atomic<std::uint64_t> *c)
    {
        seqCounter_ = c;
    }

  private:
    enum class Phase : std::uint8_t
    {
        Build,
        Warm,
        Measure,
        Done,
    };

    void emitProgress();
    void finishRun();
    void failRun(Reason r, const std::string &msg);

    const std::uint64_t id_;
    SessionPlan plan_;
    std::string tracePath_;
    std::shared_ptr<OutQueue> out_;
    std::unique_ptr<MultiCoreSystem> sys_;
    Phase phase_ = Phase::Build;
    std::uint64_t quanta_ = 0;
    std::atomic<bool> aborted_{false};
    std::atomic<bool> complete_{false};
    std::atomic<std::uint64_t> *seqCounter_ = nullptr;
};

} // namespace fade::daemon

#endif // FADE_DAEMON_SESSION_HH
