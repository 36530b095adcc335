/**
 * @file
 * Client side of the daemon protocol: one connection, one session.
 * Shared by the differential tests (tests/test_daemon.cc) and the
 * faded_client CLI (bench/faded_client.cc), so both exercise the
 * exact byte stream the daemon speaks.
 */

#ifndef FADE_DAEMON_CLIENT_HH
#define FADE_DAEMON_CLIENT_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "daemon/protocol.hh"

namespace fade::daemon
{

/** Everything one session produced. */
struct SessionOutcome
{
    bool ok = false;
    ResultInfo result;
    /** Rejection / failure detail when !ok. */
    ErrorInfo error;
    /** Advisory progress frames observed before the result. */
    std::vector<ProgressInfo> progress;
};

class DaemonClient
{
  public:
    /** Connect and handshake (magic + Hello/HelloOk). Throws
     *  ProtocolError when the daemon is unreachable or rejects the
     *  protocol version. */
    explicit DaemonClient(const std::string &socketPath,
                          int timeoutMs = 5000);
    ~DaemonClient();

    DaemonClient(const DaemonClient &) = delete;
    DaemonClient &operator=(const DaemonClient &) = delete;

    const HelloInfo &hello() const { return hello_; }

    /**
     * Submit a configuration (uploading @p ftracePath first when
     * wc.upload is set). @return nothing on Configured, the typed
     * rejection on Rejected. Throws ProtocolError on transport
     * failures.
     */
    std::optional<ErrorInfo>
    configure(const WireSessionConfig &wc,
              const std::string &ftracePath = "");

    /** Start the configured session and block until it finishes
     *  (Result + Bye) or fails. @p perFrameSleepMs > 0 sleeps between
     *  received frames — the slow-reader knob the backpressure tests
     *  use to force the daemon to park this session; @p onStarted runs
     *  once the pool has admitted it (the Started frame). */
    SessionOutcome run(int perFrameSleepMs = 0,
                       const std::function<void()> &onStarted = {});

    /** Orderly goodbye (Close frame); the destructor only closes the
     *  socket. */
    void close();

    /** Raw socket (fuzz tests inject malformed bytes directly). */
    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    HelloInfo hello_;
};

} // namespace fade::daemon

#endif // FADE_DAEMON_CLIENT_HH
