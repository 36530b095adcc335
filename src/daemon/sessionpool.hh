/**
 * @file
 * The session pool: multiplexes every admitted session onto a worker
 * pool (one worker per CPU by default) in bounded quanta, the same
 * bound-and-interleave move the shard scheduler makes one level down.
 * Admission control caps the in-flight sessions (a typed
 * AdmissionFull rejection beyond the limit — the client retries,
 * nothing queues unboundedly); the per-session OutQueue bound
 * provides backpressure (a session whose client reads slowly is
 * parked, not stepped, until its writer drains, so it stalls only
 * itself while the workers keep serving everyone else).
 *
 * Scheduling discipline: a runnable session lives in exactly one
 * place — the ready queue, one worker's hands, or the parked state.
 * Workers pop a session, run one quantum (Session::step), and requeue
 * it; every handoff goes through the pool mutex, which is also what
 * makes one quantum's writes visible to whichever worker runs the
 * next. Fairness is round-robin by construction: the ready queue is
 * FIFO and a stepped session goes to the back.
 *
 * Shutdown drains: shutdown() stops admission (Rejected{Shutdown})
 * and by default waits until every in-flight session has pushed its
 * terminal frames; shutdown(false) aborts the stragglers instead.
 */

#ifndef FADE_DAEMON_SESSIONPOOL_HH
#define FADE_DAEMON_SESSIONPOOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "daemon/session.hh"
#include "system/scheduler.hh"

namespace fade::daemon
{

/** Pool knobs (FadedConfig::pool). */
struct PoolConfig
{
    /** In-flight session cap; submissions beyond it are rejected with
     *  Reason::AdmissionFull. */
    unsigned maxActive = 8;
    /** Worker threads stepping sessions; by default one per CPU this
     *  process may run on, so as many sessions run at once as the
     *  host can execute. This does not bound the daemon's threads:
     *  each ParallelBatched session also runs min(CPUs, shards)
     *  scheduler workers of its own whenever that is 2 or more
     *  (ShardScheduler::workerCount). */
    unsigned workers = hostCpuCount();
    /** Slice epochs per quantum: the yield granularity at which
     *  sessions interleave. Results are quantum-invariant
     *  (ShardScheduler::stepEpochs); only latency fairness moves. */
    std::uint64_t quantumEpochs = 8;
};

class SessionPool
{
  public:
    explicit SessionPool(const PoolConfig &cfg);
    ~SessionPool();

    SessionPool(const SessionPool &) = delete;
    SessionPool &operator=(const SessionPool &) = delete;

    /**
     * Admit @p s and start stepping it. @return Reason::None on
     * admission, AdmissionFull at the cap, Shutdown once draining.
     * The pool keeps the session alive (shared_ptr) until it
     * completes, even if its connection dies first.
     */
    Reason submit(std::shared_ptr<Session> s);

    /**
     * Make a parked @p s runnable again. Called by connection writer
     * threads after popping frames (the queue may have drained below
     * its bound) and after aborting a session (an aborted session
     * must be stepped once more to tear down and complete). No-op
     * unless the session is actually parked.
     */
    void unpark(Session *s);

    /** Stop admitting; wait for in-flight sessions to finish
     *  (@p drain) or abort them (!@p drain); join the workers.
     *  Idempotent. */
    void shutdown(bool drain = true);

    unsigned active() const;
    unsigned maxActive() const { return cfg_.maxActive; }
    /** Worker threads the pool runs (PoolConfig::workers, at least
     *  1). */
    unsigned workers() const { return cfg_.workers; }

  private:
    void workerLoop();

    PoolConfig cfg_;
    std::atomic<std::uint64_t> seq_{0};

    mutable std::mutex m_;
    std::condition_variable cv_;     ///< workers wait for ready work
    std::condition_variable idleCv_; ///< shutdown waits for active==0
    std::deque<std::shared_ptr<Session>> ready_;
    /** Sessions parked on a full OutQueue (owned here while parked). */
    std::vector<std::shared_ptr<Session>> parked_;
    unsigned active_ = 0;
    bool draining_ = false;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace fade::daemon

#endif // FADE_DAEMON_SESSIONPOOL_HH
