#include "daemon/protocol.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace fade::daemon
{

namespace
{

[[noreturn]] void
sysFail(const char *what)
{
    throw ProtocolError(std::string(what) + ": " +
                        std::strerror(errno));
}

} // namespace

const char *
reasonName(Reason r)
{
    switch (r) {
      case Reason::None:
        return "none";
      case Reason::AdmissionFull:
        return "admission-full";
      case Reason::BadConfig:
        return "bad-config";
      case Reason::Protocol:
        return "protocol";
      case Reason::BadTrace:
        return "bad-trace";
      case Reason::Shutdown:
        return "shutdown";
      case Reason::Internal:
        return "internal";
    }
    return "unknown";
}

void
protocolDecodeFail(const std::string &msg)
{
    throw ProtocolError("frame " + msg);
}

// ------------------------------------------------------------ payloads

void
encodeHello(wire::Enc &e, std::uint32_t version)
{
    e.varint(version);
}

std::uint32_t
decodeHello(wire::Dec &d)
{
    return std::uint32_t(d.varint());
}

void
encodeHelloOk(wire::Enc &e, const HelloInfo &h)
{
    e.varint(h.version);
    e.varint(h.maxSessions);
    e.varint(h.activeSessions);
}

HelloInfo
decodeHelloOk(wire::Dec &d)
{
    HelloInfo h;
    h.version = std::uint32_t(d.varint());
    h.maxSessions = std::uint32_t(d.varint());
    h.activeSessions = std::uint32_t(d.varint());
    return h;
}

void
encodeConfig(wire::Enc &e, const WireSessionConfig &c)
{
    e.str(c.monitor);
    e.varint(c.profiles.size());
    for (const std::string &p : c.profiles)
        e.str(p);
    e.varint(c.shards);
    e.varint(c.clusters);
    e.varint(c.fadesPerShard);
    e.varint(c.remoteLatency);
    e.varint(c.sliceTicks);
    e.u8(c.policy);
    e.u8(c.engine);
    e.varint(c.warmup);
    e.varint(c.measure);
    e.varint(c.seedOffset);
    e.u8(c.upload ? 1 : 0);
}

WireSessionConfig
decodeConfig(wire::Dec &d)
{
    WireSessionConfig c;
    c.monitor = d.str();
    std::uint64_t n = d.varint();
    if (n > 4096)
        d.fail("absurd profile count");
    c.profiles.clear();
    for (std::uint64_t i = 0; i < n; ++i)
        c.profiles.push_back(d.str());
    c.shards = std::uint32_t(d.varint());
    c.clusters = std::uint32_t(d.varint());
    c.fadesPerShard = std::uint32_t(d.varint());
    c.remoteLatency = std::uint32_t(d.varint());
    c.sliceTicks = d.varint();
    c.policy = d.u8();
    c.engine = d.u8();
    c.warmup = d.varint();
    c.measure = d.varint();
    c.seedOffset = d.varint();
    c.upload = d.u8() != 0;
    return c;
}

void
encodeProgress(wire::Enc &e, const ProgressInfo &p)
{
    e.u8(p.phase);
    e.varint(p.instructions);
    e.varint(p.events);
}

ProgressInfo
decodeProgress(wire::Dec &d)
{
    ProgressInfo p;
    p.phase = d.u8();
    p.instructions = d.varint();
    p.events = d.varint();
    return p;
}

void
encodeResult(wire::Enc &e, const ResultInfo &r)
{
    e.fixed64(r.hash);
    e.varint(r.resultFp.size());
    for (std::uint64_t v : r.resultFp)
        e.fixed64(v);
    e.varint(r.functionalFp.size());
    for (std::uint64_t v : r.functionalFp)
        e.fixed64(v);
    e.varint(r.instructions);
    e.varint(r.events);
    e.varint(r.cycles);
    e.varint(r.bugReports);
    e.varint(r.quanta);
    e.varint(r.parks);
    e.varint(r.completionSeq);
}

ResultInfo
decodeResult(wire::Dec &d)
{
    ResultInfo r;
    r.hash = d.fixed64();
    std::uint64_t n = d.varint();
    if (n * 8 > d.remaining())
        d.fail("truncated result fingerprint");
    for (std::uint64_t i = 0; i < n; ++i)
        r.resultFp.push_back(d.fixed64());
    n = d.varint();
    if (n * 8 > d.remaining())
        d.fail("truncated functional fingerprint");
    for (std::uint64_t i = 0; i < n; ++i)
        r.functionalFp.push_back(d.fixed64());
    r.instructions = d.varint();
    r.events = d.varint();
    r.cycles = d.varint();
    r.bugReports = d.varint();
    r.quanta = d.varint();
    r.parks = d.varint();
    r.completionSeq = d.varint();
    return r;
}

void
encodeError(wire::Enc &e, const ErrorInfo &err)
{
    e.u8(std::uint8_t(err.reason));
    e.str(err.message);
}

ErrorInfo
decodeError(wire::Dec &d)
{
    ErrorInfo err;
    err.reason = Reason(d.u8());
    err.message = d.str();
    return err;
}

// ------------------------------------------------------------- framing

std::vector<std::uint8_t>
sealFrame(const std::vector<std::uint8_t> &body)
{
    wire::Enc e;
    e.out.reserve(body.size() + 8);
    e.fixed32(std::uint32_t(body.size()));
    e.out.insert(e.out.end(), body.begin(), body.end());
    e.fixed32(wire::crc32(body.data(), body.size()));
    return std::move(e.out);
}

std::vector<std::uint8_t>
sealFrame(FrameType t)
{
    return sealFrame(std::vector<std::uint8_t>{std::uint8_t(t)});
}

// ------------------------------------------------------- socket plumbing

namespace
{

sockaddr_un
unixAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw ProtocolError("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

int
listenUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        sysFail("socket");
    sockaddr_un addr = unixAddr(path);
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        sysFail("bind");
    }
    if (::listen(fd, 64) < 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        sysFail("listen");
    }
    return fd;
}

int
connectUnix(const std::string &path, int timeoutMs)
{
    sockaddr_un addr = unixAddr(path);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            sysFail("socket");
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        int e = errno;
        ::close(fd);
        // The daemon may still be binding its socket; keep trying
        // until the caller's deadline.
        if ((e == ENOENT || e == ECONNREFUSED) &&
            std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
        }
        errno = e;
        sysFail(("connect " + path).c_str());
    }
}

void
writeAll(int fd, const void *p, std::size_t n)
{
    const std::uint8_t *b = static_cast<const std::uint8_t *>(p);
    while (n != 0) {
        // MSG_NOSIGNAL: a vanished peer must surface as EPIPE here,
        // not kill the daemon with SIGPIPE.
        ssize_t w = ::send(fd, b, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            sysFail("send");
        }
        b += w;
        n -= std::size_t(w);
    }
}

namespace
{

/** Read exactly @p n bytes; returns false on EOF at offset 0 when
 *  @p eofOk, throws on every other short read or error. */
bool
readAll(int fd, void *p, std::size_t n, bool eofOk)
{
    std::uint8_t *b = static_cast<std::uint8_t *>(p);
    std::size_t got = 0;
    while (got < n) {
        ssize_t r = ::recv(fd, b + got, n - got, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            sysFail("recv");
        }
        if (r == 0) {
            if (got == 0 && eofOk)
                return false;
            throw ProtocolError("connection truncated mid-frame");
        }
        got += std::size_t(r);
    }
    return true;
}

} // namespace

bool
readFrame(int fd, std::vector<std::uint8_t> &body)
{
    std::uint8_t lenBytes[4];
    if (!readAll(fd, lenBytes, 4, true))
        return false;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= std::uint32_t(lenBytes[i]) << (8 * i);
    if (len == 0 || len > maxFrameBytes)
        throw ProtocolError("frame length " + std::to_string(len) +
                            " out of range");
    body.resize(len);
    readAll(fd, body.data(), len, false);
    std::uint8_t crcBytes[4];
    readAll(fd, crcBytes, 4, false);
    std::uint32_t want = 0;
    for (int i = 0; i < 4; ++i)
        want |= std::uint32_t(crcBytes[i]) << (8 * i);
    std::uint32_t got = wire::crc32(body.data(), body.size());
    if (want != got)
        throw ProtocolError("frame CRC mismatch");
    return true;
}

void
writeFrame(int fd, const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> sealed = sealFrame(body);
    writeAll(fd, sealed.data(), sealed.size());
}

void
readMagic(int fd)
{
    char magic[sizeof(connectionMagic)];
    if (!readAll(fd, magic, sizeof(magic), true))
        throw ProtocolError("connection closed before magic");
    if (std::memcmp(magic, connectionMagic, sizeof(magic)) != 0)
        throw ProtocolError("bad connection magic");
}

void
writeMagic(int fd)
{
    writeAll(fd, connectionMagic, sizeof(connectionMagic));
}

} // namespace fade::daemon
