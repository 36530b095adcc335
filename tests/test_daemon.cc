/**
 * @file
 * The monitoring daemon, proven session-isolated by differential
 * testing (src/daemon/):
 *
 *  - DaemonDifferential.*: K concurrent sessions with distinct
 *    configs — across scheduler policy, engine, topology, and a
 *    multi-threaded process workload — over a real unix socket, each
 *    required to produce result and functional fingerprints
 *    bit-identical to a standalone (daemon-free) run of the same
 *    config; live-generated and replayed-from-upload; repeated for
 *    determinism. Runs under the TSan CI job: any cross-session
 *    data sharing is both a fingerprint mismatch and a race report.
 *
 *  - DaemonFuzz.*: protocol robustness under ASan/UBSan — malformed
 *    magic, oversized declared lengths, bit-flipped CRCs, truncated
 *    frames, garbage floods, disconnects mid-upload and mid-run. The
 *    contract: a typed per-session error, never a daemon crash, hang,
 *    or contamination of the next session (every case ends by running
 *    a clean session against the same daemon). Config validation is
 *    held to the same contract by a property test: seeded near-valid
 *    live configs and edited upload manifests must each end in a typed
 *    rejection or error or a completed run, never a process exit.
 *
 *  - DaemonAdmission.* / DaemonBackpressure.*: the pool's admission
 *    cap rejects with a typed reason; a slow reader parks only its
 *    own session while others complete; shutdown drains in-flight
 *    sessions to completed results.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hh"
#include "daemon/daemon.hh"
#include "daemon/session.hh"
#include "daemon/sessionpool.hh"
#include "monitor/factory.hh"
#include "sim/random.hh"
#include "system/multicore.hh"
#include "testutil.hh"
#include "trace/profile.hh"
#include "trace/tracefile.hh"

using namespace fade;
using namespace fade::daemon;
using fade::test::TempDir;
using fade::test::UniqueSocketPath;

namespace
{

/** Small instruction budgets: the differential suite runs every
 *  config twice (daemon + standalone) on the CI host. */
constexpr std::uint64_t kWarm = 1000;
constexpr std::uint64_t kMeasure = 4000;

WireSessionConfig
liveConfig(const std::string &monitor, const std::string &profile,
           std::uint32_t shards = 1, std::uint8_t policy = 0,
           std::uint8_t engine = 0, std::uint32_t clusters = 1)
{
    WireSessionConfig wc;
    wc.monitor = monitor;
    wc.profiles = {profile};
    wc.shards = shards;
    wc.clusters = clusters;
    wc.policy = policy;
    wc.engine = engine;
    wc.warmup = kWarm;
    wc.measure = kMeasure;
    return wc;
}

/** The differential knob matrix: distinct monitor x profile x shape x
 *  policy x engine combinations, including a clustered topology and a
 *  multi-threaded process workload with a cross-shard monitor. */
std::vector<WireSessionConfig>
differentialMatrix()
{
    std::vector<WireSessionConfig> m;
    m.push_back(liveConfig("MemLeak", "bzip"));
    m.push_back(liveConfig("AddrCheck", "mcf", 2, 1, 0));
    m.push_back(liveConfig("MemLeak", "gcc", 2, 0, 2, 2));
    m.push_back(liveConfig("TaintCheck", "astar", 1, 0, 0));
    m.push_back(liveConfig("AtomCheck", "ocean", 2, 1, 0));
    m.push_back(liveConfig("RaceCheck", "ocean-mt", 2, 1, 0));
    m.push_back(liveConfig("SharedTaint", "streamcluster-mt", 4, 0, 0));
    m.push_back(liveConfig("MemLeak", "bzip", 1, 0, 2));
    return m;
}

void
expectSameExperiment(const ResultInfo &daemonSide,
                     const ResultInfo &standalone, const char *what)
{
    EXPECT_EQ(daemonSide.hash, standalone.hash) << what;
    EXPECT_EQ(daemonSide.resultFp, standalone.resultFp) << what;
    EXPECT_EQ(daemonSide.functionalFp, standalone.functionalFp)
        << what;
    EXPECT_EQ(daemonSide.instructions, standalone.instructions)
        << what;
    EXPECT_EQ(daemonSide.events, standalone.events) << what;
    EXPECT_EQ(daemonSide.bugReports, standalone.bugReports) << what;
}

/** Run one session against @p socket and return its outcome. */
SessionOutcome
runSession(const std::string &socket, const WireSessionConfig &wc,
           const std::string &upload = "", int slowMs = 0)
{
    DaemonClient client(socket);
    auto rej = client.configure(wc, upload);
    if (rej) {
        SessionOutcome o;
        o.error = *rej;
        return o;
    }
    SessionOutcome o = client.run(slowMs);
    client.close();
    return o;
}

/** Assert a clean session still works against @p socket — the
 *  daemon-is-alive probe every fuzz case ends with. */
void
expectDaemonServes(const std::string &socket)
{
    WireSessionConfig wc = liveConfig("MemLeak", "bzip");
    wc.warmup = 200;
    wc.measure = 1000;
    SessionOutcome o = runSession(socket, wc);
    ASSERT_TRUE(o.ok) << o.error.message;
    EXPECT_GE(o.result.instructions, 1000u);
}

/** Raw misbehaving client: connect and write arbitrary bytes. */
int
rawConnect(const std::string &socket)
{
    return connectUnix(socket, 5000);
}

void
rawWrite(int fd, const std::vector<std::uint8_t> &bytes)
{
    // Failures are fine — the daemon may hang up mid-write.
    try {
        writeAll(fd, bytes.data(), bytes.size());
    } catch (const ProtocolError &) {
    }
}

std::vector<std::uint8_t>
helloFrameBytes()
{
    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Hello));
    encodeHello(e, protocolVersion);
    return sealFrame(e.out);
}

/** Capture a small sealed trace (200 warmup + 800 measured
 *  instructions per shard) of @p profile under @p monitor. */
void
captureSmall(const std::string &path, const std::string &monitor,
             const std::string &profile, unsigned shards)
{
    MultiCoreConfig cap;
    cap.monitor = monitor;
    cap.numShards = shards;
    cap.workloads = {*lookupProfile(monitor, profile)};
    cap.traceOut = path;
    MultiCoreSystem sys(cap);
    sys.warmup(200);
    MultiCoreResult r = sys.run(800);
    sys.closeTrace(fingerprintHash(resultFingerprint(sys, r)));
}

/** Write the trace at @p from out again to @p to through the library's
 *  own TraceWriter — streams verbatim, valid CRCs — with @p edit
 *  applied to its manifest. */
void
rewriteManifest(const std::string &from, const std::string &to,
                const std::function<void(TraceManifest &)> &edit)
{
    TraceReader r(from);
    TraceWriter w(to);
    w.setConfigFingerprint(r.configFingerprint());
    for (unsigned s = 0; s < r.numStreams(); ++s)
        w.addStream(r.stream(s));
    for (unsigned s = 0; s < r.numStreams(); ++s) {
        ReplaySource src(r, s);
        while (src.available())
            w.append(s, src.fetch());
    }
    TraceManifest m = r.manifest();
    edit(m);
    w.setManifest(m);
    w.close();
}

template <typename T>
T
pick(Rng &rng, const std::vector<T> &v)
{
    return v[rng.range(std::uint32_t(v.size()))];
}

/** One case of the never-exit property: a live config, or an upload
 *  of a small capture with one manifest field changed. */
struct FuzzCase
{
    WireSessionConfig wc;
    /** Upload cases only: the capture's monitor, profile and shard
     *  count, and the manifest edit (editManifest()). */
    std::string captureMonitor;
    std::string captureProfile;
    unsigned captureShards = 1;
    unsigned editField = 0;
    std::uint64_t editValue = 0;
};

/** Monitor names the cases draw from: every known one, the
 *  unmonitored baseline "" and an unknown name. */
std::vector<std::string>
fuzzMonitors()
{
    std::vector<std::string> v = monitorNames();
    v.push_back("");
    v.push_back("NoSuchMonitor");
    return v;
}

/**
 * A near-valid live config: a valid config of one workload family —
 * SPEC under a single-process monitor, a parallel benchmark under
 * AtomCheck, or a -mt process under RaceCheck/SharedTaint — with up to
 * two fields then broken. Uniform draws over the whole config space
 * almost all fail the first check they reach; one broken field of a
 * valid config reaches the deep rules.
 */
FuzzCase
liveFuzzCase(Rng &rng)
{
    FuzzCase c;
    WireSessionConfig &wc = c.wc;
    switch (rng.range(3)) {
      case 0:
        wc.monitor = pick<std::string>(
            rng, {"AddrCheck", "MemCheck", "MemLeak", "TaintCheck"});
        wc.profiles = {pick(rng, specBenchmarks())};
        wc.shards = 1 + rng.range(4);
        break;
      case 1:
        wc.monitor = "AtomCheck";
        wc.profiles = {pick(rng, parallelBenchmarks())};
        wc.shards = 1 + rng.range(4);
        break;
      default:
        wc.monitor = rng.range(2) ? "RaceCheck" : "SharedTaint";
        wc.profiles = {pick(rng, parallelBenchmarks()) + "-mt"};
        wc.shards = 1u << rng.range(3); // divides the 4 threads
        break;
    }
    wc.clusters = wc.shards % 2 == 0 && rng.range(2) ? 2 : 1;
    wc.fadesPerShard = 1 + rng.range(2);
    wc.policy = std::uint8_t(rng.range(2));
    wc.engine = rng.range(2) ? 2 : 0;
    wc.warmup = rng.range(500);
    wc.measure = 1 + rng.range(1500);

    for (unsigned b = rng.range(3); b > 0; --b) {
        switch (rng.range(9)) {
          case 0:
            wc.shards = rng.range(10);
            break;
          case 1:
            wc.clusters = rng.range(5);
            break;
          case 2:
            wc.fadesPerShard = rng.range(10);
            break;
          case 3:
            wc.monitor = pick(rng, fuzzMonitors());
            break;
          case 4:
            wc.profiles[0] = pick<std::string>(
                rng, {"nosuch", "nosuch-mt", "-mt", "gcc", "ocean",
                      "ocean-mt", "gcc-mt"});
            break;
          case 5:
            wc.profiles.push_back(pick<std::string>(
                rng, {"bzip", "water", "ocean-mt", wc.profiles[0]}));
            break;
          case 6:
            wc.policy = std::uint8_t(rng.range(4));
            break;
          case 7:
            wc.engine = std::uint8_t(rng.range(4));
            break;
          case 8:
            wc.sliceTicks = pick<std::uint64_t>(
                rng, {1, 15, 16, 1000, 1u << 20, (1u << 20) + 1});
            break;
        }
    }
    return c;
}

/** Manifest fields the upload cases change (editManifest() field i),
 *  and how many values, [0, n), each draws. */
const std::vector<std::pair<std::string, std::uint32_t>> &
manifestFields()
{
    static const std::vector<std::pair<std::string, std::uint32_t>> v = {
        {"numShards", 4},
        {"clusters", 4},
        {"shardsPerCluster", 4},
        {"fadesPerShard", 10},
        {"sliceTicks", 3},
        {"coreWidth", 3},
        {"robSize", 3},
        {"eqCapacity", 3},
        {"ueqCapacity", 3},
        {"monitor", std::uint32_t(fuzzMonitors().size())},
        {"accelerated", 2},
        {"twoCore", 2},
        {"perfectConsumer", 2},
        {"warmupInstructions", 1000},
        {"measureInstructions", 1200},
    };
    return v;
}

/** Set manifestFields()[@p field] of @p m to @p x. */
void
editManifest(TraceManifest &m, unsigned field, std::uint64_t x)
{
    switch (field) {
      case 0:
        m.numShards = x;
        break;
      case 1:
        m.clusters = x;
        break;
      case 2:
        m.shardsPerCluster = x;
        break;
      case 3:
        m.fadesPerShard = x;
        break;
      case 4:
        m.sliceTicks = x;
        break;
      case 5:
        m.coreWidth = x;
        break;
      case 6:
        m.robSize = x;
        break;
      case 7:
        m.eqCapacity = x;
        break;
      case 8:
        m.ueqCapacity = x;
        break;
      case 9:
        m.monitor = fuzzMonitors().at(x);
        break;
      case 10:
        m.accelerated = x != 0;
        break;
      case 11:
        m.twoCore = x != 0;
        break;
      case 12:
        m.perfectConsumer = x != 0;
        break;
      case 13:
        m.warmupInstructions = x;
        break;
      case 14:
        m.measureInstructions = x;
        break;
    }
}

/** An upload of a small capture — 1-shard gcc under MemLeak or a
 *  2-shard ocean-mt under RaceCheck — with one manifest field changed,
 *  replayed under a random policy and engine. */
FuzzCase
uploadFuzzCase(Rng &rng)
{
    FuzzCase c;
    c.wc.upload = true;
    c.wc.policy = std::uint8_t(rng.range(2));
    c.wc.engine = rng.range(2) ? 2 : 0;
    if (rng.range(2)) {
        c.captureMonitor = "MemLeak";
        c.captureProfile = "gcc";
    } else {
        c.captureMonitor = "RaceCheck";
        c.captureProfile = "ocean-mt";
        c.captureShards = 2;
    }
    c.editField = rng.range(std::uint32_t(manifestFields().size()));
    c.editValue = rng.range(manifestFields()[c.editField].second);
    return c;
}

std::string
describe(const FuzzCase &c)
{
    const WireSessionConfig &wc = c.wc;
    std::string d = "policy=" + std::to_string(wc.policy) +
                    " engine=" + std::to_string(wc.engine);
    if (wc.upload)
        return "upload " + c.captureProfile + "/" + c.captureMonitor +
               " x" + std::to_string(c.captureShards) + " manifest " +
               manifestFields()[c.editField].first + "=" +
               std::to_string(c.editValue) + " " + d;
    d += " monitor='" + wc.monitor + "' profiles=";
    for (const std::string &p : wc.profiles)
        d += p + ",";
    return d + " shards=" + std::to_string(wc.shards) +
           " clusters=" + std::to_string(wc.clusters) +
           " fades=" + std::to_string(wc.fadesPerShard) +
           " sliceTicks=" + std::to_string(wc.sliceTicks) +
           " budget=" + std::to_string(wc.warmup) + "+" +
           std::to_string(wc.measure);
}

/** Run @p c through the daemon's own plan -> construct -> run path
 *  (standaloneRun). A typed rejection is as good as a completed run,
 *  and so is a TraceError from a replay whose streams run dry before
 *  the manifest's budget: the daemon reports it as a BadTrace error.
 *  Returns normally unless the process dies. */
void
runFuzzCase(const FuzzCase &c)
{
    TempDir dir;
    std::string trace;
    if (c.wc.upload) {
        std::string capture = dir.file("capture.ftrace");
        trace = dir.file("edited.ftrace");
        captureSmall(capture, c.captureMonitor, c.captureProfile,
                     c.captureShards);
        rewriteManifest(capture, trace, [&](TraceManifest &m) {
            editManifest(m, c.editField, c.editValue);
        });
    }
    try {
        standaloneRun(c.wc, trace);
    } catch (const SessionReject &) {
    } catch (const TraceError &) {
    }
}

} // namespace

// ===================================================== differential

TEST(DaemonDifferential, ConcurrentSessionsMatchStandalone)
{
    std::vector<WireSessionConfig> matrix = differentialMatrix();

    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    cfg.pool.maxActive = unsigned(matrix.size());
    cfg.pool.workers = 2;
    cfg.pool.quantumEpochs = 4;
    Faded daemon(cfg);
    daemon.start();

    // All sessions in flight at once, each on its own connection.
    std::vector<SessionOutcome> outcomes(matrix.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < matrix.size(); ++i)
        clients.emplace_back([&, i] {
            outcomes[i] = runSession(sock.path(), matrix[i]);
        });
    for (std::thread &t : clients)
        t.join();

    // Each must equal its standalone (daemon-free) run bit for bit:
    // interleaving K sessions on 2 workers changed nothing.
    std::vector<bool> seqSeen(matrix.size() + 1, false);
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok)
            << matrix[i].monitor << "/" << matrix[i].profiles[0]
            << ": " << outcomes[i].error.message;
        ResultInfo local = standaloneRun(matrix[i]);
        expectSameExperiment(outcomes[i].result, local,
                             matrix[i].profiles[0].c_str());
        // Completion order is some permutation of 1..K.
        std::uint64_t seq = outcomes[i].result.completionSeq;
        ASSERT_GE(seq, 1u);
        ASSERT_LE(seq, matrix.size());
        EXPECT_FALSE(seqSeen[std::size_t(seq)]);
        seqSeen[std::size_t(seq)] = true;
    }

    daemon.stop();
    EXPECT_EQ(daemon.activeSessions(), 0u);
}

TEST(DaemonDifferential, RepeatedRunsAreDeterministic)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    WireSessionConfig wc = liveConfig("AddrCheck", "mcf", 2, 1, 2);
    SessionOutcome a = runSession(sock.path(), wc);
    SessionOutcome b = runSession(sock.path(), wc);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    expectSameExperiment(a.result, b.result, "repeat");
    daemon.stop();
}

TEST(DaemonDifferential, UploadReplayMatchesStandalone)
{
    // Capture a two-shard trace with a sealed manifest.
    TempDir dir;
    std::string trace = dir.file("capture.ftrace");
    {
        MultiCoreConfig cap;
        cap.monitor = "MemLeak";
        cap.numShards = 2;
        cap.workloads = {specProfile("bzip"), specProfile("mcf")};
        cap.traceOut = trace;
        MultiCoreSystem sys(cap);
        sys.warmup(kWarm);
        MultiCoreResult r = sys.run(kMeasure);
        sys.closeTrace(fingerprintHash(resultFingerprint(sys, r)));
    }

    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    // Replay daemon-side from an upload, under two scheduler
    // policies; both must equal the standalone replay bit for bit.
    for (std::uint8_t policy : {0, 1}) {
        WireSessionConfig wc;
        wc.upload = true;
        wc.policy = policy;
        SessionOutcome o = runSession(sock.path(), wc, trace);
        ASSERT_TRUE(o.ok) << o.error.message;
        ResultInfo local = standaloneRun(wc, trace);
        expectSameExperiment(o.result, local, "upload-replay");
        // And the replay reproduces the capture-time result hash.
        TraceManifest m = TraceReader(trace).manifest();
        ASSERT_TRUE(m.hasFingerprint);
        EXPECT_EQ(o.result.hash, m.fingerprintHash);
    }
    daemon.stop();
}

TEST(DaemonDifferential, ThreadedProcessUploadReplay)
{
    // A multi-threaded process workload (cross-shard RaceCheck)
    // captured, uploaded, and replayed daemon-side.
    TempDir dir;
    std::string trace = dir.file("race.ftrace");
    {
        MultiCoreConfig cap;
        cap.monitor = "RaceCheck";
        cap.numShards = 2;
        cap.workloads = {threadedProfile("ocean")};
        cap.traceOut = trace;
        MultiCoreSystem sys(cap);
        sys.warmup(kWarm);
        MultiCoreResult r = sys.run(kMeasure);
        sys.closeTrace(fingerprintHash(resultFingerprint(sys, r)));
    }

    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    WireSessionConfig wc;
    wc.upload = true;
    SessionOutcome o = runSession(sock.path(), wc, trace);
    ASSERT_TRUE(o.ok) << o.error.message;
    ResultInfo local = standaloneRun(wc, trace);
    expectSameExperiment(o.result, local, "threaded-upload");
    daemon.stop();
}

// ============================================================= fuzz

TEST(DaemonFuzz, BadMagicGetsRejected)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    int fd = rawConnect(sock.path());
    rawWrite(fd, {'N', 'O', 'T', 'M', 'A', 'G', 'I', 'C'});
    // The daemon answers with an Error frame (or hangs up); it must
    // not crash or leave the connection dangling.
    std::vector<std::uint8_t> body;
    try {
        while (readFrame(fd, body)) {
        }
    } catch (const ProtocolError &) {
    }
    ::close(fd);

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, OversizedFrameLengthRejected)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    int fd = rawConnect(sock.path());
    writeMagic(fd);
    // Declared length far beyond maxFrameBytes: must be rejected
    // before any allocation, not malloc'd.
    rawWrite(fd, {0xFF, 0xFF, 0xFF, 0xFF});
    std::vector<std::uint8_t> body;
    bool sawError = false;
    try {
        while (readFrame(fd, body))
            if (FrameType(body.at(0)) == FrameType::Error) {
                wire::Dec d = frameDec(body, "error");
                EXPECT_EQ(decodeError(d).reason, Reason::Protocol);
                sawError = true;
            }
    } catch (const ProtocolError &) {
    }
    EXPECT_TRUE(sawError);
    ::close(fd);

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, BitFlippedCrcRejected)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    int fd = rawConnect(sock.path());
    writeMagic(fd);
    std::vector<std::uint8_t> frame = helloFrameBytes();
    frame.back() ^= 0x01; // corrupt the CRC trailer
    rawWrite(fd, frame);

    // The daemon must detect the corruption, answer with an Error
    // frame naming the CRC, and hang up.
    std::vector<std::uint8_t> body;
    bool sawError = false;
    try {
        while (readFrame(fd, body))
            if (FrameType(body.at(0)) == FrameType::Error) {
                wire::Dec d = frameDec(body, "error");
                ErrorInfo e = decodeError(d);
                EXPECT_EQ(e.reason, Reason::Protocol);
                EXPECT_NE(e.message.find("CRC"), std::string::npos);
                sawError = true;
            }
    } catch (const ProtocolError &) {
    }
    EXPECT_TRUE(sawError);
    ::close(fd);

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, PayloadBitFlipsNeverCrash)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    // Flip every bit of a valid Hello body in turn, resealing the
    // frame each time so the corruption reaches the payload decoder
    // rather than the CRC check.
    wire::Enc hello;
    hello.u8(std::uint8_t(FrameType::Hello));
    encodeHello(hello, protocolVersion);
    for (std::size_t bit = 0; bit < hello.out.size() * 8; ++bit) {
        std::vector<std::uint8_t> body = hello.out;
        body[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        int fd = rawConnect(sock.path());
        writeMagic(fd);
        rawWrite(fd, sealFrame(body));
        std::vector<std::uint8_t> reply;
        try {
            while (readFrame(fd, reply)) {
            }
        } catch (const ProtocolError &) {
        }
        ::close(fd);
    }

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, TruncatedFrameThenDisconnect)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    int fd = rawConnect(sock.path());
    writeMagic(fd);
    // Declare 100 body bytes, deliver 10, vanish.
    rawWrite(fd, {100, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    ::close(fd);

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, GarbageFloodSurvived)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    // A deterministic xorshift byte stream, in a few chunk sizes.
    std::uint64_t x = 0x243F6A8885A308D3ull;
    for (std::size_t chunk : {7u, 64u, 4096u}) {
        int fd = rawConnect(sock.path());
        std::vector<std::uint8_t> junk(chunk);
        for (int rounds = 0; rounds < 8; ++rounds) {
            for (auto &b : junk) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b = std::uint8_t(x);
            }
            rawWrite(fd, junk);
        }
        ::close(fd);
    }

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, DisconnectMidUpload)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    int fd = rawConnect(sock.path());
    writeMagic(fd);
    rawWrite(fd, helloFrameBytes());
    // Valid Configure announcing an upload...
    wire::Enc e;
    e.u8(std::uint8_t(FrameType::Configure));
    WireSessionConfig wc;
    wc.upload = true;
    wc.warmup = 0;
    wc.measure = 0;
    encodeConfig(e, wc);
    rawWrite(fd, sealFrame(e.out));
    // ...one TraceData frame, then gone mid-upload.
    wire::Enc data;
    data.u8(std::uint8_t(FrameType::TraceData));
    for (int i = 0; i < 100; ++i)
        data.u8(std::uint8_t(i));
    rawWrite(fd, sealFrame(data.out));
    ::close(fd);

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, ClientDeathMidRunAbortsOnlyThatSession)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    cfg.pool.quantumEpochs = 1; // many quanta: the abort lands mid-run
    Faded daemon(cfg);
    daemon.start();

    {
        DaemonClient dying(sock.path());
        WireSessionConfig wc = liveConfig("MemLeak", "gcc");
        wc.measure = maxSessionInstructions / 2; // long-running
        ASSERT_FALSE(dying.configure(wc).has_value());
        writeFrame(dying.fd(), {std::uint8_t(FrameType::Run)});
        // Die only once the pool has admitted the session (Started);
        // before that, the reaping check below could pass vacuously.
        std::vector<std::uint8_t> body;
        while (readFrame(dying.fd(), body) &&
               FrameType(body.at(0)) != FrameType::Started) {
        }
        // Abrupt death: the destructor closes the socket with the
        // session running and frames in flight.
    }

    // The daemon must reap the aborted session (no leak of the
    // admission slot) and keep serving others.
    for (int spin = 0; spin < 500 && daemon.activeSessions() > 0;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(daemon.activeSessions(), 0u);

    expectDaemonServes(sock.path());
    daemon.stop();
}

TEST(DaemonFuzz, BadConfigsGetTypedRejections)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();

    struct Case
    {
        std::string what;
        WireSessionConfig wc;
        Reason reason;
        /** Substring the reject message must carry. */
        const char *says = "";
        /** Trace to upload (wc.upload). */
        std::string upload = "";
    };
    std::vector<Case> cases;
    cases.push_back({"unknown monitor",
                     liveConfig("NoSuchMonitor", "bzip"),
                     Reason::BadConfig});
    cases.push_back({"unknown profile",
                     liveConfig("MemLeak", "nosuchbench"),
                     Reason::BadConfig});
    cases.push_back({"shards not divisible by clusters",
                     liveConfig("MemLeak", "bzip", 3, 0, 0, 2),
                     Reason::BadConfig});
    cases.push_back({"race monitor without -mt workload",
                     liveConfig("RaceCheck", "ocean"),
                     Reason::BadConfig});
    cases.push_back({"more shards than process threads",
                     liveConfig("RaceCheck", "ocean-mt", 8),
                     Reason::BadConfig});
    cases.push_back({"process threads not divisible by shards",
                     liveConfig("RaceCheck", "ocean-mt", 3),
                     Reason::BadConfig, "divide evenly"});
    {
        WireSessionConfig wc = liveConfig("MemLeak", "bzip");
        wc.measure = maxSessionInstructions + 1;
        cases.push_back({"budget cap", wc, Reason::BadConfig});
    }
    {
        WireSessionConfig wc = liveConfig("MemLeak", "bzip");
        wc.engine = 7;
        cases.push_back({"unknown engine", wc, Reason::BadConfig});
    }
    {
        WireSessionConfig wc = liveConfig("MemLeak", "bzip");
        wc.engine = 1;
        cases.push_back({"retired batched engine", wc, Reason::BadConfig,
                         "batched"});
    }
    // Well-formed uploads (valid CRCs) of a 1-shard capture whose
    // manifest breaks one rule of the system.
    TempDir dir;
    const std::string capture = dir.file("capture.ftrace");
    captureSmall(capture, "MemLeak", "gcc", 1);
    const std::pair<const char *, std::function<void(TraceManifest &)>>
        edits[] = {
            {"fadesPerShard = 9",
             [](TraceManifest &m) { m.fadesPerShard = 9; }},
            {"sliceTicks = 0", [](TraceManifest &m) { m.sliceTicks = 0; }},
            {"robSize = 0", [](TraceManifest &m) { m.robSize = 0; }},
            {"coreWidth = 0", [](TraceManifest &m) { m.coreWidth = 0; }},
            {"shardsPerCluster = 2",
             [](TraceManifest &m) { m.shardsPerCluster = 2; }},
        };
    for (const auto &[what, edit] : edits) {
        std::string path =
            dir.file(("edit" + std::to_string(cases.size())).c_str());
        rewriteManifest(capture, path, edit);
        WireSessionConfig wc;
        wc.upload = true;
        cases.push_back({std::string("upload, manifest ") + what, wc,
                         Reason::BadTrace, "", path});
    }

    for (const Case &c : cases) {
        DaemonClient client(sock.path());
        auto rej = client.configure(c.wc, c.upload);
        ASSERT_TRUE(rej.has_value()) << c.what;
        EXPECT_EQ(rej->reason, c.reason) << c.what;
        EXPECT_NE(rej->message.find(c.says), std::string::npos)
            << c.what << ": " << rej->message;
        client.close();
        expectDaemonServes(sock.path());
    }
    daemon.stop();
}

TEST(DaemonFuzz, UploadThatRunsDryGetsTypedError)
{
    // A manifest budget beyond what the captured streams hold passes
    // every config check; the replay then runs out of records mid-run.
    // That is bad input, answered with a BadTrace error, not a panic.
    TempDir dir;
    const std::string capture = dir.file("capture.ftrace");
    const std::string edited = dir.file("edited.ftrace");
    captureSmall(capture, "MemLeak", "gcc", 1);
    rewriteManifest(capture, edited, [](TraceManifest &m) {
        m.measureInstructions += 1000;
    });

    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    Faded daemon(cfg);
    daemon.start();
    for (std::uint8_t policy : {0, 1}) {
        WireSessionConfig wc;
        wc.upload = true;
        wc.policy = policy;
        wc.engine = policy ? 2 : 0;
        SessionOutcome o = runSession(sock.path(), wc, edited);
        EXPECT_FALSE(o.ok);
        EXPECT_EQ(o.error.reason, Reason::BadTrace);
        EXPECT_NE(o.error.message.find("ran dry"), std::string::npos)
            << o.error.message;
        expectDaemonServes(sock.path());
    }
    daemon.stop();
}

TEST(DaemonFuzz, RandomConfigsNeverExit)
{
    // Property: no client config ends the process. Each case runs in
    // its own child, through the daemon's own plan -> construct -> run
    // path, and must exit 0 — after a typed SessionReject or a
    // completed run. A fatal() or panic() the validation missed fails
    // the case and names its config.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    constexpr unsigned kLiveCases = 220;
    constexpr unsigned kUploadCases = 80;
    Rng rng(15);
    for (unsigned i = 0; i < kLiveCases + kUploadCases; ++i) {
        const FuzzCase c =
            i < kLiveCases ? liveFuzzCase(rng) : uploadFuzzCase(rng);
        EXPECT_EXIT(
            {
                runFuzzCase(c);
                std::exit(0);
            },
            testing::ExitedWithCode(0), "")
            << "case " << i << ": " << describe(c);
    }
}

// ======================================================== admission

TEST(DaemonAdmission, TypedRejectionBeyondLimit)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    cfg.pool.maxActive = 1;
    cfg.pool.workers = 1;
    cfg.pool.quantumEpochs = 1;
    Faded daemon(cfg);
    daemon.start();

    // Occupy the only slot with a long-running session.
    WireSessionConfig longWc = liveConfig("MemLeak", "bzip");
    longWc.measure = maxSessionInstructions / 4;
    SessionOutcome held;
    std::thread holder(
        [&] { held = runSession(sock.path(), longWc); });
    while (daemon.activeSessions() < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The second submission is rejected with the typed reason, not
    // queued and not crashed.
    WireSessionConfig smallWc = liveConfig("MemLeak", "mcf");
    smallWc.warmup = 200;
    smallWc.measure = 1000;
    SessionOutcome rejected = runSession(sock.path(), smallWc);
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.error.reason, Reason::AdmissionFull);

    // The holder finishes; the slot frees; the retry is admitted.
    // (The worker decrements the active count just after pushing the
    // terminal frames, so wait for the slot, as a real client would.)
    holder.join();
    ASSERT_TRUE(held.ok) << held.error.message;
    while (daemon.activeSessions() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    SessionOutcome retry = runSession(sock.path(), smallWc);
    ASSERT_TRUE(retry.ok) << retry.error.message;
    expectSameExperiment(retry.result, standaloneRun(smallWc),
                         "post-rejection retry");

    daemon.stop();
}

TEST(DaemonAdmission, ShutdownDrainsInFlightSessions)
{
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    cfg.pool.quantumEpochs = 2;
    Faded daemon(cfg);
    daemon.start();

    // Start two sessions, then stop the daemon from another thread
    // while they run: both must still deliver complete, correct
    // results (drain semantics), after which the daemon is down.
    std::vector<WireSessionConfig> wcs = {
        liveConfig("MemLeak", "bzip"),
        liveConfig("AddrCheck", "mcf", 2, 1, 0),
    };
    std::vector<SessionOutcome> outcomes(wcs.size());
    std::vector<std::thread> clients;
    // A session is in flight once the pool has admitted it (Started),
    // not once Configure is answered: a stop() landing in between
    // refuses its Run. A session never admitted counts when its client
    // gives up, so that failure reports below instead of hanging here.
    std::atomic<unsigned> settled{0};
    for (std::size_t i = 0; i < wcs.size(); ++i)
        clients.emplace_back([&, i] {
            bool admitted = false;
            DaemonClient client(sock.path());
            if (!client.configure(wcs[i]))
                outcomes[i] = client.run(0, [&] {
                    admitted = true;
                    settled.fetch_add(1);
                });
            if (!admitted)
                settled.fetch_add(1);
            client.close();
        });
    while (settled.load() < wcs.size())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    daemon.stop(true);
    for (std::thread &t : clients)
        t.join();

    for (std::size_t i = 0; i < wcs.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error.message;
        expectSameExperiment(outcomes[i].result,
                             standaloneRun(wcs[i]), "drained");
    }
}

TEST(DaemonAdmission, PoolRejectsSubmissionsWhileDraining)
{
    // Pool-level unit test, no sockets: a session submitted after
    // shutdown() began gets the typed Shutdown rejection.
    SessionPool pool(PoolConfig{2, 1, 4});
    pool.shutdown(true);

    WireSessionConfig wc = liveConfig("MemLeak", "bzip");
    auto q = std::make_shared<OutQueue>(8);
    auto s = std::make_shared<Session>(1, wc, "", q);
    EXPECT_EQ(pool.submit(s), Reason::Shutdown);
}

// ===================================================== backpressure

TEST(DaemonBackpressure, OutQueueBoundAndTerminalOverride)
{
    OutQueue q(2);
    EXPECT_TRUE(q.tryPush(sealFrame(FrameType::Progress)));
    EXPECT_TRUE(q.tryPush(sealFrame(FrameType::Progress)));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.tryPush(sealFrame(FrameType::Progress)));
    // Terminal frames bypass the bound.
    q.forcePush(sealFrame(FrameType::Result));
    q.forcePush(sealFrame(FrameType::Bye));
    q.finish();

    std::vector<std::uint8_t> f;
    int n = 0;
    while (q.pop(f))
        ++n;
    EXPECT_EQ(n, 4);
    // After closeSink, pushes are swallowed.
    OutQueue dead(2);
    dead.closeSink();
    EXPECT_TRUE(dead.tryPush(sealFrame(FrameType::Progress)));
    EXPECT_FALSE(dead.full());
    EXPECT_FALSE(dead.pop(f));
}

TEST(DaemonBackpressure, ParkedSessionYieldsWorkerToOthers)
{
    // Pool-level, no sockets, no kernel buffers: session A's queue has
    // no consumer, so after two advisory frames the single worker must
    // park A — not spin on it — and run session B to completion.
    // Draining A's queue afterwards unparks it and it completes too,
    // with both Result frames bit-identical to standalone runs:
    // backpressure moved scheduling, not results.
    SessionPool pool(PoolConfig{2, 1, 1});

    WireSessionConfig wcA = liveConfig("MemLeak", "bzip");
    WireSessionConfig wcB = liveConfig("AddrCheck", "mcf");
    auto qa = std::make_shared<OutQueue>(2);
    auto qb = std::make_shared<OutQueue>(2);
    auto a = std::make_shared<Session>(1, wcA, "", qa);
    auto b = std::make_shared<Session>(2, wcB, "", qb);

    // B's consumer drains continuously (a healthy client).
    std::vector<std::vector<std::uint8_t>> framesB;
    std::thread consumerB([&] {
        std::vector<std::uint8_t> f;
        while (qb->pop(f)) {
            framesB.push_back(f);
            pool.unpark(b.get());
        }
    });

    ASSERT_EQ(pool.submit(a), Reason::None);
    ASSERT_EQ(pool.submit(b), Reason::None);

    // B finishes while A sits parked on its full queue.
    consumerB.join();
    EXPECT_FALSE(a->complete());
    EXPECT_GE(a->parks_.load(), 1u);

    // A's client finally reads: drain + unpark until A completes.
    std::vector<std::vector<std::uint8_t>> framesA;
    std::vector<std::uint8_t> f;
    while (qa->pop(f)) {
        framesA.push_back(f);
        pool.unpark(a.get());
    }
    EXPECT_TRUE(a->complete());
    pool.shutdown(true);

    // Decode each session's Result frame; B completed first. Queue
    // frames are sealed (fixed32 length + body + fixed32 CRC), so
    // strip the framing the connection writer would put on the wire.
    auto unseal = [](const std::vector<std::uint8_t> &frame) {
        std::uint32_t len = std::uint32_t(frame.at(0)) |
                            std::uint32_t(frame.at(1)) << 8 |
                            std::uint32_t(frame.at(2)) << 16 |
                            std::uint32_t(frame.at(3)) << 24;
        return std::vector<std::uint8_t>(frame.begin() + 4,
                                         frame.begin() + 4 + len);
    };
    auto resultOf = [&](std::vector<std::vector<std::uint8_t>> &frames)
        -> ResultInfo {
        for (auto &raw : frames) {
            std::vector<std::uint8_t> body = unseal(raw);
            if (FrameType(body.at(0)) == FrameType::Result) {
                wire::Dec d = frameDec(body, "result");
                return decodeResult(d);
            }
        }
        ADD_FAILURE() << "no Result frame";
        return ResultInfo{};
    };
    ResultInfo ra = resultOf(framesA);
    ResultInfo rb = resultOf(framesB);
    EXPECT_EQ(rb.completionSeq, 1u);
    EXPECT_EQ(ra.completionSeq, 2u);
    EXPECT_GE(ra.parks, 1u);
    expectSameExperiment(ra, standaloneRun(wcA), "parked session");
    expectSameExperiment(rb, standaloneRun(wcB), "healthy session");
}

TEST(DaemonBackpressure, SlowReaderDoesNotPerturbOthers)
{
    // Socket-level: a client that sleeps between frames shares the
    // single worker with a fast client; both must complete with
    // results bit-identical to standalone runs.
    UniqueSocketPath sock;
    FadedConfig cfg;
    cfg.socketPath = sock.path();
    cfg.pool.workers = 1;
    cfg.pool.quantumEpochs = 1; // a progress frame per epoch
    cfg.outFrames = 2;          // tiny bound
    Faded daemon(cfg);
    daemon.start();

    WireSessionConfig slowWc = liveConfig("MemLeak", "bzip");
    WireSessionConfig fastWc = liveConfig("MemLeak", "mcf");
    SessionOutcome slow, fast;
    std::thread slowT(
        [&] { slow = runSession(sock.path(), slowWc, "", 5); });
    std::thread fastT(
        [&] { fast = runSession(sock.path(), fastWc); });
    slowT.join();
    fastT.join();

    ASSERT_TRUE(slow.ok) << slow.error.message;
    ASSERT_TRUE(fast.ok) << fast.error.message;
    expectSameExperiment(slow.result, standaloneRun(slowWc),
                         "slow session");
    expectSameExperiment(fast.result, standaloneRun(fastWc),
                         "fast session");

    daemon.stop();
}
