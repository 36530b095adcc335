/**
 * @file
 * faded — the long-lived monitoring daemon. Listens on a unix stream
 * socket, speaks the framed protocol (daemon/protocol.hh), and serves
 * each connection start to finish on a thread of its own.
 *
 * A connection's thread drives the conversation (hello -> configure
 * [-> upload] -> run -> close) and, once Run is admitted, runs the
 * whole session (Session::run), writing each frame straight to the
 * socket. The socket's send buffer is the only queue between a session
 * and its client: a client that reads slowly blocks only its own
 * thread. Protocol violations answer with a typed Error frame and tear
 * down only that connection; a client that hangs up or speaks mid-run
 * ends only its own session. The thread closes its socket when it
 * ends, so an idle daemon holds two threads (main and accept) and each
 * open connection one more.
 *
 * Admission is a counter: at most FadedConfig::maxSessions sessions
 * run at once, a Run beyond that is Rejected{AdmissionFull}. stop()
 * (default drain) answers every later Run with Rejected{Shutdown},
 * lets every running session finish and write its Result, then closes
 * the connections; stop(false) ends the running sessions instead.
 */

#ifndef FADE_DAEMON_DAEMON_HH
#define FADE_DAEMON_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "daemon/session.hh"

namespace fade::daemon
{

/** Daemon knobs. */
struct FadedConfig
{
    /** Unix socket path (sockaddr_un: keep it short). */
    std::string socketPath;
    /** In-flight session cap; a Run beyond it is rejected with
     *  Reason::AdmissionFull. */
    unsigned maxSessions = 8;
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

    unsigned activeSessions() const;
    const std::string &socketPath() const { return cfg_.socketPath; }

  private:
    /** One accepted connection and the thread that serves it. */
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        /** The thread closed fd and is returning (guarded by m_). */
        bool done = false;
    };

    void acceptLoop();
    /** Join and drop the connections whose threads are done (m_
     *  held). */
    void reapDone();
    /** Shut every open connection's socket down (m_ held). */
    void shutdownAll(int how);
    /** A connection's thread: converse(), then close the socket. */
    void serve(Connection &c);
    void converse(int fd);
    /** Run @p s under an admission slot, then write its last frames.
     *  @return false when it was ended early, which ends the
     *  connection. */
    bool runAdmitted(int fd, const Session &s);
    Reason admit();
    void release();

    FadedConfig cfg_;
    /** Numbers the Result frames in completion order (1-based). */
    std::atomic<std::uint64_t> completions_{0};
    /** stop(false): running sessions end at their next quantum. */
    std::atomic<bool> aborting_{false};
    /** Atomic: stop() retires it while the accept loop reads it. */
    std::atomic<int> listenFd_{-1};
    std::thread acceptThread_;

    mutable std::mutex m_;
    /** Signalled when a session ends or a connection's thread is
     *  done. */
    std::condition_variable changed_;
    /** Sessions admitted and not yet ended. */
    unsigned active_ = 0;
    /** stop() began: Run answers Rejected{Shutdown}. */
    bool draining_ = false;
    std::list<Connection> conns_;
};

} // namespace fade::daemon

#endif // FADE_DAEMON_DAEMON_HH
