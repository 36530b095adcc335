#include "daemon/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include <sys/socket.h>
#include <unistd.h>

namespace fade::daemon
{

namespace
{

void
sendError(int fd, FrameType t, Reason r, const std::string &msg)
{
    wire::Enc e;
    e.u8(std::uint8_t(t));
    encodeError(e, ErrorInfo{r, msg});
    writeFrame(fd, e.out);
}

/** Receive TraceData frames into a temp file in @p dir until
 *  TraceEnd. @return the file path. */
std::string
receiveUpload(int fd, const std::string &dir)
{
    char tmpl[256];
    std::snprintf(tmpl, sizeof(tmpl), "%s/faded_upload_XXXXXX",
                  dir.c_str());
    int tfd = ::mkstemp(tmpl);
    if (tfd < 0)
        throw ProtocolError("cannot create upload temp file");
    std::string path = tmpl;
    try {
        std::uint64_t total = 0;
        std::vector<std::uint8_t> body;
        for (;;) {
            if (!readFrame(fd, body))
                throw ProtocolError("disconnect mid-upload");
            FrameType t = FrameType(body.at(0));
            if (t == FrameType::TraceEnd)
                break;
            if (t != FrameType::TraceData)
                throw ProtocolError("expected TraceData/TraceEnd");
            total += body.size() - 1;
            if (total > maxUploadBytes)
                throw ProtocolError("upload exceeds size cap");
            std::size_t n = body.size() - 1;
            if (n && ::write(tfd, body.data() + 1, n) != ssize_t(n))
                throw ProtocolError("cannot write upload temp file");
        }
    } catch (...) {
        ::close(tfd);
        std::remove(path.c_str());
        throw;
    }
    ::close(tfd);
    return path;
}

/** Configure (+ optional upload) -> session construction. @return
 *  the session, or null after answering Rejected. */
std::unique_ptr<Session>
configure(int fd, const std::vector<std::uint8_t> &body,
          const std::string &uploadDir)
{
    wire::Dec d = frameDec(body, "configure");
    WireSessionConfig wc = decodeConfig(d);
    std::string tracePath;
    if (wc.upload)
        tracePath = receiveUpload(fd, uploadDir);
    std::unique_ptr<Session> s;
    try {
        s = std::make_unique<Session>(wc, tracePath);
    } catch (const SessionReject &e) {
        // The Session ctor owns the temp file only on success.
        if (!tracePath.empty())
            std::remove(tracePath.c_str());
        sendError(fd, FrameType::Rejected, e.reason, e.what());
        return nullptr;
    }
    writeFrame(fd, {std::uint8_t(FrameType::Configured)});
    return s;
}

} // namespace

Faded::Faded(const FadedConfig &cfg) : cfg_(cfg) {}

Faded::~Faded()
{
    stop(false);
}

void
Faded::start()
{
    listenFd_.store(listenUnix(cfg_.socketPath));
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Faded::acceptLoop()
{
    // Only stop() ends this loop: it retires listenFd_ before shutting
    // the socket down, which fails the blocked accept().
    for (int lfd; (lfd = listenFd_.load()) >= 0;) {
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            // Out of descriptors or memory: the connection waits in
            // the backlog until some are freed. Retry, but not in a
            // tight loop.
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            continue;
        }
        std::lock_guard<std::mutex> lk(m_);
        reapDone();
        Connection &c = conns_.emplace_back();
        c.fd = fd;
        c.thread = std::thread([this, &c] { serve(c); });
    }
}

void
Faded::reapDone()
{
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (!it->done) {
            ++it;
            continue;
        }
        it->thread.join();
        it = conns_.erase(it);
    }
}

void
Faded::shutdownAll(int how)
{
    for (Connection &c : conns_)
        if (!c.done)
            ::shutdown(c.fd, how);
}

void
Faded::serve(Connection &c)
{
    converse(c.fd);
    // Under m_, so that stop() never shuts down a descriptor that was
    // closed and reused.
    std::lock_guard<std::mutex> lk(m_);
    ::close(c.fd);
    c.done = true;
    changed_.notify_all();
}

void
Faded::converse(int fd)
{
    std::unique_ptr<Session> session;
    bool ran = false;
    try {
        readMagic(fd);
        std::vector<std::uint8_t> body;
        if (!readFrame(fd, body) ||
            FrameType(body.at(0)) != FrameType::Hello)
            throw ProtocolError("expected Hello");
        wire::Dec d = frameDec(body, "hello");
        std::uint32_t version = decodeHello(d);
        if (version != protocolVersion) {
            sendError(fd, FrameType::Rejected, Reason::Protocol,
                      "unsupported protocol version " +
                          std::to_string(version));
            throw ProtocolError("version mismatch");
        }
        {
            wire::Enc e;
            e.u8(std::uint8_t(FrameType::HelloOk));
            HelloInfo h;
            h.maxSessions = cfg_.maxSessions;
            h.activeSessions = activeSessions();
            encodeHelloOk(e, h);
            writeFrame(fd, e.out);
        }

        while (readFrame(fd, body)) {
            switch (FrameType(body.at(0))) {
              case FrameType::Configure:
                if (session)
                    throw ProtocolError("Configure sent twice");
                session = configure(fd, body, cfg_.uploadDir);
                break;
              case FrameType::Run: {
                if (!session)
                    throw ProtocolError(
                        "Run before a successful Configure");
                if (ran)
                    throw ProtocolError("Run sent twice");
                Reason r = admit();
                if (r != Reason::None) {
                    sendError(fd, FrameType::Rejected, r,
                              std::string("not admitted: ") +
                                  reasonName(r));
                    break;
                }
                ran = true;
                if (!runAdmitted(fd, *session))
                    return;
                break;
              }
              case FrameType::Close:
                return;
              default:
                throw ProtocolError("unexpected frame type");
            }
        }
    } catch (const ProtocolError &e) {
        // Best-effort diagnostic; the peer may already be gone.
        try {
            sendError(fd, FrameType::Error, Reason::Protocol, e.what());
        } catch (const ProtocolError &) {
        }
    }
}

bool
Faded::runAdmitted(int fd, const Session &s)
{
    std::vector<std::uint8_t> last;
    {
        struct Slot
        {
            Faded &d;
            ~Slot() { d.release(); }
        } slot{*this};
        writeFrame(fd, {std::uint8_t(FrameType::Started)});
        last = s.run(fd, aborting_, completions_);
    }
    // The slot is free before the client can see its session end, so
    // a client that has read Bye can start its next session at once.
    if (last.empty())
        return false;
    writeFrame(fd, last);
    if (FrameType(last[0]) == FrameType::Result)
        writeFrame(fd, {std::uint8_t(FrameType::Bye)});
    return true;
}

Reason
Faded::admit()
{
    std::lock_guard<std::mutex> lk(m_);
    if (draining_)
        return Reason::Shutdown;
    if (active_ >= cfg_.maxSessions)
        return Reason::AdmissionFull;
    ++active_;
    return Reason::None;
}

void
Faded::release()
{
    std::lock_guard<std::mutex> lk(m_);
    --active_;
    changed_.notify_all();
}

unsigned
Faded::activeSessions() const
{
    std::lock_guard<std::mutex> lk(m_);
    return active_;
}

void
Faded::stop(bool drain)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        if (draining_)
            return;
        draining_ = true;
    }
    if (!drain)
        aborting_.store(true);
    int lfd = listenFd_.exchange(-1);
    if (lfd >= 0)
        ::shutdown(lfd, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();

    std::unique_lock<std::mutex> lk(m_);
    // Abort cuts every connection now; a running session notices at
    // its next quantum. A drain lets every running session write its
    // Result first, then wakes the connections blocked in a read.
    if (!drain)
        shutdownAll(SHUT_RDWR);
    changed_.wait(lk, [&] { return active_ == 0; });
    shutdownAll(SHUT_RD);
    changed_.wait(lk, [&] {
        return std::all_of(conns_.begin(), conns_.end(),
                           [](const Connection &c) { return c.done; });
    });
    reapDone();
    lk.unlock();

    if (lfd >= 0) {
        ::close(lfd);
        ::unlink(cfg_.socketPath.c_str());
    }
}

} // namespace fade::daemon
