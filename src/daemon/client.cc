#include "daemon/client.hh"

#include <chrono>
#include <cstdio>
#include <thread>

#include <unistd.h>

namespace fade::daemon
{

namespace
{

/** Read one server frame, failing on EOF. */
std::vector<std::uint8_t>
nextFrame(int fd)
{
    std::vector<std::uint8_t> body;
    if (!readFrame(fd, body))
        throw ProtocolError("daemon closed the connection");
    return body;
}

} // namespace

DaemonClient::DaemonClient(const std::string &socketPath, int timeoutMs)
{
    fd_ = connectUnix(socketPath, timeoutMs);
    try {
        writeMagic(fd_);
        wire::Enc e;
        e.u8(std::uint8_t(FrameType::Hello));
        encodeHello(e, protocolVersion);
        writeFrame(fd_, e.out);

        std::vector<std::uint8_t> body = nextFrame(fd_);
        FrameType t = FrameType(body.at(0));
        if (t == FrameType::Rejected) {
            wire::Dec d = frameDec(body, "rejected");
            throw ProtocolError("handshake rejected: " +
                                decodeError(d).message);
        }
        if (t != FrameType::HelloOk)
            throw ProtocolError("expected HelloOk");
        wire::Dec d = frameDec(body, "hello-ok");
        hello_ = decodeHelloOk(d);
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }
}

DaemonClient::~DaemonClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::optional<ErrorInfo>
DaemonClient::configure(const WireSessionConfig &wc,
                        const std::string &ftracePath)
{
    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Configure));
    encodeConfig(e, wc);
    writeFrame(fd_, e.out);

    if (wc.upload) {
        std::FILE *f = std::fopen(ftracePath.c_str(), "rb");
        if (!f)
            throw ProtocolError("cannot open " + ftracePath);
        std::vector<std::uint8_t> chunk(64 * 1024);
        for (;;) {
            std::size_t n =
                std::fread(chunk.data() + 1, 1, chunk.size() - 1, f);
            if (n == 0)
                break;
            chunk[0] = std::uint8_t(FrameType::TraceData);
            std::vector<std::uint8_t> body(
                chunk.begin(), chunk.begin() + std::ptrdiff_t(n + 1));
            writeFrame(fd_, body);
        }
        std::fclose(f);
        writeFrame(fd_, {std::uint8_t(FrameType::TraceEnd)});
    }

    std::vector<std::uint8_t> body = nextFrame(fd_);
    FrameType t = FrameType(body.at(0));
    if (t == FrameType::Configured)
        return std::nullopt;
    if (t == FrameType::Rejected || t == FrameType::Error) {
        wire::Dec d = frameDec(body, "rejected");
        return decodeError(d);
    }
    throw ProtocolError("expected Configured/Rejected");
}

SessionOutcome
DaemonClient::run(int perFrameSleepMs,
                  const std::function<void()> &onStarted)
{
    writeFrame(fd_, {std::uint8_t(FrameType::Run)});

    SessionOutcome o;
    for (;;) {
        std::vector<std::uint8_t> body = nextFrame(fd_);
        if (perFrameSleepMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(perFrameSleepMs));
        switch (FrameType(body.at(0))) {
          case FrameType::Started:
            if (onStarted)
                onStarted();
            break;
          case FrameType::Progress: {
            wire::Dec d = frameDec(body, "progress");
            o.progress.push_back(decodeProgress(d));
            break;
          }
          case FrameType::Result: {
            wire::Dec d = frameDec(body, "result");
            o.result = decodeResult(d);
            o.ok = true;
            break;
          }
          case FrameType::Bye:
            return o;
          case FrameType::Rejected:
          case FrameType::Error: {
            wire::Dec d = frameDec(body, "error");
            o.error = decodeError(d);
            o.ok = false;
            return o;
          }
          default:
            throw ProtocolError("unexpected server frame");
        }
    }
}

void
DaemonClient::close()
{
    if (fd_ < 0)
        return;
    try {
        writeFrame(fd_, {std::uint8_t(FrameType::Close)});
    } catch (const ProtocolError &) {
        // The daemon may already have gone away; closing is best
        // effort.
    }
    ::close(fd_);
    fd_ = -1;
}

} // namespace fade::daemon
