/**
 * @file
 * faded — the long-lived monitoring daemon. Listens on a unix stream
 * socket, speaks the framed protocol (daemon/protocol.hh), and runs
 * one session per connection on the shared session pool
 * (daemon/sessionpool.hh).
 *
 * Per connection: a reader thread drives the conversation state
 * machine (hello -> configure [-> upload] -> run -> close) and a
 * writer thread drains the session's bounded output queue to the
 * socket, reporting each drained frame to the pool so a parked
 * session becomes runnable again. Protocol violations answer with a
 * typed Error frame and tear down only that connection; a vanished
 * client aborts only its own session. stop() (default drain) stops
 * admission, lets every in-flight session finish and flush its
 * Result, then closes the connections; stop(false) aborts instead.
 */

#ifndef FADE_DAEMON_DAEMON_HH
#define FADE_DAEMON_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/sessionpool.hh"

namespace fade::daemon
{

/** Daemon knobs. */
struct FadedConfig
{
    /** Unix socket path (sockaddr_un: keep it short). */
    std::string socketPath;
    PoolConfig pool;
    /** Per-session output queue bound, in frames (backpressure
     *  threshold). */
    std::size_t outFrames = 64;
    /** Directory for uploaded .ftrace files (one temp file per
     *  upload, removed with the session). */
    std::string uploadDir = "/tmp";
};

class Faded
{
  public:
    explicit Faded(const FadedConfig &cfg);
    ~Faded();

    Faded(const Faded &) = delete;
    Faded &operator=(const Faded &) = delete;

    /** Bind, listen, and start accepting. Throws ProtocolError when
     *  the socket cannot be created. */
    void start();

    /** Stop accepting; drain (default) or abort in-flight sessions;
     *  close every connection and join all threads. Idempotent. */
    void stop(bool drain = true);

    unsigned activeSessions() const { return pool_.active(); }
    unsigned workers() const { return pool_.workers(); }
    const std::string &socketPath() const { return cfg_.socketPath; }

  private:
    struct Connection;

    void acceptLoop();
    void reapDone();

    FadedConfig cfg_;
    SessionPool pool_;
    std::atomic<std::uint64_t> nextSessionId_{0};
    /** Atomic: stop() retires it while the accept loop reads it. */
    std::atomic<int> listenFd_{-1};
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};
    bool stopped_ = false;

    std::mutex connMutex_;
    std::vector<std::unique_ptr<Connection>> conns_;
};

} // namespace fade::daemon

#endif // FADE_DAEMON_DAEMON_HH
