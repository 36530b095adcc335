/**
 * @file
 * daemon_mix: faded runs in its own process with its default pool (2
 * workers). Load is a closed loop: 4 client threads on 4 connections,
 * each sending its next session only after the previous one's Bye, in
 * short phases with the host's speed sampled between them.
 * Sessions are drawn from the seed: short live sessions over three
 * shapes (1 shard; 2 shards; 2 clusters x 2 shards with 2 FADEs), the
 * five paper monitors, the per-cycle or run-grain engine and the
 * lockstep policy, and every fourth session uploads and replays one of
 * the small traces generated from the seed before the load starts.
 *
 * Frames are read through the public framing calls (daemon/protocol.hh)
 * so each one is timestamped as it arrives. After the load, a sample of
 * sessions is re-run in-process through standaloneRun and must match
 * the daemon's fingerprints bit for bit.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/common.hh"
#include "common.hh"
#include "daemon/client.hh"
#include "daemon/session.hh"
#include "system/multicore.hh"

using namespace fade;
using namespace fade::daemon;

namespace perfbench
{

namespace
{

constexpr unsigned loadClients = 4;
/** Two uploads per paper monitor (1 and 2 shards), so that the quarter
 *  of sessions that replay an upload cost the same mix for every seed;
 *  the seed picks their benchmarks and profile seeds. */
constexpr unsigned uploadTraces = 10;
constexpr std::uint64_t sessionWarm = 1000;
constexpr std::uint64_t sessionMeasure = 10000;
constexpr unsigned smokeSessions = 12;
/** Load phase length, and reference kernel samples between phases. */
constexpr double phaseSeconds = 2.0;
constexpr int pauseSamples = 5;

std::string
uploadPath(const RunArgs &a, unsigned u)
{
    return a.dir + "/upload" + std::to_string(u) + ".ftrace";
}

/** One session of the mix: a live config, or an upload of a trace. */
struct SessionSpec
{
    WireSessionConfig wc;
    int upload = -1;
};

SessionSpec
sessionSpec(const RunArgs &a, std::uint64_t idx)
{
    std::uint64_t h = mix64(mix64(a.seed) ^ idx);
    auto pick = [&h](std::uint64_t n) {
        std::uint64_t v = h % n;
        h = mix64(h);
        return v;
    };
    SessionSpec s;
    s.wc.policy = 0; // lockstep: no nested scheduler threads
    s.wc.engine = pick(2) ? 2 : 0;
    if (idx % 4 == 3) {
        s.upload = int(pick(uploadTraces));
        s.wc.upload = true;
        return s;
    }
    const auto &mons = paperMonitorNames();
    s.wc.monitor = mons[pick(mons.size())];
    switch (pick(3)) {
      case 0:
        s.wc.shards = 1;
        break;
      case 1:
        s.wc.shards = 2;
        break;
      default:
        s.wc.shards = 4;
        s.wc.clusters = 2;
        s.wc.fadesPerShard = 2;
        break;
    }
    const auto &benches = bench::benchmarksFor(s.wc.monitor);
    for (unsigned i = 0; i < s.wc.shards; ++i)
        s.wc.profiles.push_back(benches[pick(benches.size())]);
    s.wc.warmup = a.smoke ? 200 : sessionWarm;
    s.wc.measure = a.smoke ? 1000 : sessionMeasure;
    s.wc.seedOffset = a.seed + idx;
    return s;
}

/** faded in a child process. Stopped (drained) and reaped on stop() or
 *  destruction; also asked to stop if this process dies first. */
class DaemonProcess
{
  public:
    DaemonProcess(const RunArgs &a, const std::string &sock)
        : sock_(sock)
    {
        const std::string log = a.dir + "/faded.log";
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execl(a.faded.c_str(), a.faded.c_str(), "--socket",
                    sock.c_str(), "--upload-dir", a.dir.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }

    ~DaemonProcess()
    {
        try {
            stop();
        } catch (...) {
            // stop() only throws on waitpid errors; nothing to recover.
        }
    }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Poll until the socket accepts a connection. */
    void
    waitReady(double timeoutSeconds)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (sock_.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long: " + sock_);
        std::memcpy(addr.sun_path, sock_.c_str(), sock_.size() + 1);
        const auto t0 = Clock::now();
        for (;;) {
            int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                               sizeof addr);
            ::close(fd);
            if (rc == 0)
                return;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("faded exited during start-up");
            }
            if (seconds(t0, Clock::now()) > timeoutSeconds)
                throw std::runtime_error("faded did not start");
            ::usleep(100);
        }
    }

    /** Peak resident set of the daemon, MiB. */
    double peakRss() const { return peakRssMib(std::to_string(pid_)); }

    /** SIGTERM (drain), reap; SIGKILL after 30 s. @return exit status,
     *  -1 if it had to be killed. */
    int
    stop()
    {
        if (pid_ <= 0)
            return 0;
        ::kill(pid_, SIGTERM);
        const auto t0 = Clock::now();
        int status = 0;
        for (;;) {
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_)
                break;
            if (r < 0 && errno != EINTR)
                throw std::runtime_error("waitpid failed");
            if (seconds(t0, Clock::now()) > 30.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                return -1;
            }
            ::usleep(1000);
        }
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    std::string sock_;
    pid_t pid_ = -1;
};

/** One session as the client saw it. */
struct SessionRecord
{
    std::uint64_t idx = 0;
    bool ok = false;
    std::string error;
    ResultInfo result;
    Clock::time_point start, end;
    double latencyMs = 0, connectMs = 0, configureMs = 0, admitMs = 0;
    double firstProgressMs = -1, execMs = -1;
};

double
ms(Clock::time_point a, Clock::time_point b)
{
    return seconds(a, b) * 1e3;
}

SessionRecord
runSession(const RunArgs &a, const std::string &sock,
           const SessionSpec &spec, std::uint64_t idx, SpanLog &spans)
{
    SessionRecord rec;
    rec.idx = idx;
    const auto t0 = Clock::now();
    const std::int64_t root = spans.open("session", idx, -1, t0);
    try {
        DaemonClient c(sock);
        // A wedged daemon must fail the session, not hang the run.
        timeval tv{30, 0};
        ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        const auto t1 = Clock::now();
        auto rej = c.configure(spec.wc, spec.upload >= 0
                                            ? uploadPath(a, unsigned(spec.upload))
                                            : "");
        const auto t2 = Clock::now();
        spans.add("connect", idx, root, t0, t1);
        spans.add("configure", idx, root, t1, t2);
        rec.connectMs = ms(t0, t1);
        rec.configureMs = ms(t1, t2);
        if (rej) {
            rec.error = std::string("rejected (") + reasonName(rej->reason) +
                        "): " + rej->message;
            spans.close(root, Clock::now());
            return rec;
        }
        writeFrame(c.fd(), {std::uint8_t(FrameType::Run)});
        const auto t3 = Clock::now();
        Clock::time_point started = t3, progress{}, result{};
        bool haveProgress = false, haveResult = false;
        for (bool bye = false; !bye;) {
            std::vector<std::uint8_t> body;
            if (!readFrame(c.fd(), body))
                throw ProtocolError("daemon closed the connection");
            const auto t = Clock::now();
            switch (FrameType(body.at(0))) {
              case FrameType::Started:
                started = t;
                break;
              case FrameType::Progress:
                if (!haveProgress) {
                    progress = t;
                    haveProgress = true;
                }
                break;
              case FrameType::Result: {
                wire::Dec d = frameDec(body, "result");
                rec.result = decodeResult(d);
                result = t;
                haveResult = true;
                break;
              }
              case FrameType::Bye:
                bye = true;
                break;
              case FrameType::Rejected:
              case FrameType::Error: {
                wire::Dec d = frameDec(body, "error");
                ErrorInfo e = decodeError(d);
                throw ProtocolError(std::string(reasonName(e.reason)) +
                                    ": " + e.message);
              }
              default:
                throw ProtocolError("unexpected server frame");
            }
        }
        const auto tBye = Clock::now();
        c.close();
        rec.start = t0;
        rec.end = tBye;
        rec.latencyMs = ms(t0, tBye);
        rec.admitMs = ms(t3, started);
        spans.add("admit", idx, root, t3, started);
        if (haveProgress && haveResult) {
            rec.firstProgressMs = ms(started, progress);
            rec.execMs = ms(progress, result);
            spans.add("first_progress", idx, root, started, progress);
            spans.add("exec", idx, root, progress, result);
        }
        spans.close(root, tBye);
        rec.ok = haveResult;
        if (!haveResult)
            rec.error = "Bye without a Result";
    } catch (const std::exception &e) {
        rec.error = e.what();
        spans.close(root, Clock::now());
    }
    return rec;
}

bool
sameResult(const ResultInfo &a, const ResultInfo &b)
{
    return a.hash == b.hash && a.resultFp == b.resultFp &&
           a.functionalFp == b.functionalFp;
}

} // namespace

void
genDaemonMix(const RunArgs &a)
{
    const auto &mons = paperMonitorNames();
    for (unsigned u = 0; u < uploadTraces; ++u) {
        MultiCoreConfig cfg;
        cfg.monitor = mons[u % mons.size()];
        cfg.numShards = u < mons.size() ? 1 : 2;
        const auto &benches = bench::benchmarksFor(cfg.monitor);
        for (unsigned i = 0; i < cfg.numShards; ++i) {
            BenchProfile p = bench::profileFor(
                cfg.monitor, benches[(a.seed + u + i) % benches.size()]);
            p.seed += a.seed + u;
            cfg.workloads.push_back(p);
        }
        cfg.traceOut = uploadPath(a, u);
        MultiCoreSystem sys(cfg);
        sys.warmup(a.smoke ? 200 : sessionWarm);
        MultiCoreResult r = sys.run(a.smoke ? 1000 : sessionMeasure);
        sys.closeTrace(fingerprintHash(resultFingerprint(sys, r)));
    }
}

void
runDaemonMix(const RunArgs &a, Outcome &o)
{
    if (a.faded.empty())
        throw std::runtime_error("daemon_mix needs --faded PATH");
    const std::string sock = a.dir + "/faded.sock";

    // Set-up: daemon start until it accepts a connection, several times,
    // with the host's speed sampled between starts.
    const int starts = a.smoke ? 2 : 41;
    std::unique_ptr<DaemonProcess> daemon;
    for (int k = 0; k < starts; ++k) {
        if (daemon)
            o.check(daemon->stop() == 0, "faded exited uncleanly");
        o.host.sample();
        auto t0 = Clock::now();
        daemon = std::make_unique<DaemonProcess>(a, sock);
        daemon->waitReady(30.0);
        auto t1 = Clock::now();
        o.setupSeconds.push_back({seconds(t0, t1), t0, t1});
    }

    // Closed-loop load, in phases of phaseSeconds. Between phases, with
    // every session done and the daemon idle, the host's speed is
    // sampled: the reference kernel then measures the host, not this
    // load's own threads. (Sampled from a thread beside the load, it read
    // 10-20% slower, and would move with any change to the load's CPU
    // use.) The wall time is the phases' sum.
    std::vector<SessionRecord> records;
    std::mutex recMutex;
    std::atomic<std::uint64_t> next{0};
    auto pause = [&o] {
        for (int k = 0; k < pauseSamples; ++k)
            o.host.sample();
    };
    auto duration = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    };
    pause();
    const auto start = Clock::now();
    const auto deadline = start + duration(a.seconds);
    auto end = start;
    double loadSeconds = 0.0;
    do {
        const auto phaseStart = Clock::now();
        const auto until = std::min(phaseStart + duration(phaseSeconds),
                                    deadline);
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < loadClients; ++c)
            clients.emplace_back([&] {
                for (;;) {
                    if (!a.smoke && Clock::now() >= until)
                        return;
                    const std::uint64_t idx = next.fetch_add(1);
                    if (a.smoke && idx >= smokeSessions)
                        return;
                    SessionRecord r = runSession(a, sock, sessionSpec(a, idx),
                                                 idx, o.spans);
                    std::lock_guard<std::mutex> lk(recMutex);
                    records.push_back(std::move(r));
                }
            });
        for (std::thread &t : clients)
            t.join();
        end = Clock::now();
        loadSeconds += seconds(phaseStart, end);
        pause();
    } while (!a.smoke && Clock::now() < deadline);
    o.wall = {loadSeconds, start, end};
    o.peakRssMib = daemon->peakRss();
    o.check(daemon->stop() == 0, "faded did not drain and exit cleanly");

    std::sort(records.begin(), records.end(),
              [](const SessionRecord &x, const SessionRecord &y) {
                  return x.idx < y.idx;
              });
    std::vector<double> connect, configure, admit, firstProgress, exec,
        quanta;
    std::uint64_t parks = 0;
    for (const SessionRecord &r : records) {
        ++o.attempted;
        const std::string what = "session " + std::to_string(r.idx);
        bool ok = o.check(r.ok, what + ": " + r.error) &&
                  o.check(r.result.events > 0, what + ": 0 events");
        if (!ok) {
            ++o.failed;
            continue;
        }
        ++o.ops;
        o.events += r.result.events;
        o.opMs.push_back({r.latencyMs, r.start, r.end});
        connect.push_back(r.connectMs);
        configure.push_back(r.configureMs);
        admit.push_back(r.admitMs);
        if (r.firstProgressMs >= 0) {
            firstProgress.push_back(r.firstProgressMs);
            exec.push_back(r.execMs);
        }
        quanta.push_back(double(r.result.quanta));
        parks += r.result.parks;
    }
    o.eventsPerSecond.push_back(
        {double(o.events) / o.wall.value, o.wall.t0, o.wall.t1});
    o.infoNum["parks"] = double(parks);
    o.infoNum["sessions"] = double(records.size());

    // Differential re-check of a sample: the first 16 sessions (four of
    // them uploads) and an evenly spaced selection of the rest.
    std::vector<double> overhead;
    std::uint64_t checked = 0;
    const std::size_t stride = std::max<std::size_t>(1, records.size() / 8);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SessionRecord &r = records[i];
        if (!r.ok || (r.idx >= 16 && i % stride != 0))
            continue;
        const SessionSpec spec = sessionSpec(a, r.idx);
        auto t0 = Clock::now();
        ResultInfo local = standaloneRun(
            spec.wc,
            spec.upload >= 0 ? uploadPath(a, unsigned(spec.upload)) : "");
        overhead.push_back(r.latencyMs - ms(t0, Clock::now()));
        ++checked;
        if (!o.check(sameResult(r.result, local),
                     "session " + std::to_string(r.idx) +
                         ": daemon result differs from standaloneRun"))
            ++o.failed;
    }
    o.check(checked > 0, "no session was re-checked against standaloneRun");
    o.infoNum["standalone_checked"] = double(checked);

    if (!a.trace)
        return;
    o.samples("daemon.connect_ms", "ms", connect);
    o.samples("daemon.configure_ms", "ms", configure);
    o.samples("daemon.admit_ms", "ms", admit);
    o.samples("daemon.first_progress_ms", "ms", firstProgress);
    o.samples("daemon.exec_ms", "ms", exec);
    o.samples("daemon.overhead_ms", "ms", overhead);
    o.samples("daemon.quanta_per_session", "quanta", quanta);
    o.ratio("daemon.parks", "parks/session", double(parks), double(o.ops));
}

} // namespace perfbench
