/**
 * @file
 * Trace capture/replay tests: the golden-trace differential layer.
 *
 * - ReplayMatrix: capture -> replay is bit-identical (result
 *   fingerprint hash) for every monitor, across shard counts, both
 *   scheduler policies, and flat vs clustered topology.
 * - CaptureDoesNotPerturb: teeing the generator through CaptureSource
 *   leaves the live run's full fingerprint vector untouched, and the
 *   captured bytes are policy-invariant.
 * - RoundTripFuzz: randomized records (edge-case addresses included)
 *   survive encode/decode field for field; corrupted and truncated
 *   files fail with TraceError, never UB (run under ASan/UBSan in CI).
 * - GoldenCorpus: committed traces under tests/golden/ replay to the
 *   fingerprint hash recorded in their manifests.
 * - RunGrainReplay: the run-grain engine's modeled timing keeps it out
 *   of the cycle-exact hash matrix, but its captures end every stream
 *   at the exact retirement quota, so full-stream replays cover the
 *   identical instruction window under any engine — the functional
 *   fingerprints must then match bit for bit; golden traces replay
 *   deterministically under it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "system/multicore.hh"
#include "testutil.hh"
#include "trace/profile.hh"
#include "trace/tracefile.hh"

namespace fade
{

namespace
{

constexpr std::uint64_t kWarm = 1000;
constexpr std::uint64_t kRun = 2500;

/** Self-deleting temp file path for trace round trips. */
using TempTrace = test::TempFile;

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

BenchProfile
profileOf(const std::string &monitor, const std::string &bench)
{
    return monitor == "AtomCheck" ? parallelProfile(bench)
                                  : specProfile(bench);
}

MultiCoreConfig
matrixConfig(const char *monitor, const char *bench, unsigned shards,
             unsigned clusters, unsigned fades)
{
    MultiCoreConfig cfg;
    cfg.monitor = monitor;
    cfg.workloads = {profileOf(monitor, bench)};
    cfg.numShards = shards;
    cfg.topology.clusters = clusters;
    cfg.shard.fadesPerShard = fades;
    return cfg;
}

std::vector<std::uint64_t>
drive(MultiCoreSystem &sys, std::uint64_t warm, std::uint64_t run)
{
    sys.warmup(warm);
    MultiCoreResult r = sys.run(run);
    return resultFingerprint(sys, r);
}

/** Capture a run into @p path; returns its fingerprint hash. */
std::uint64_t
captureTo(const std::string &path, MultiCoreConfig cfg,
          std::uint64_t warm, std::uint64_t run)
{
    cfg.traceOut = path;
    MultiCoreSystem sys(cfg);
    std::uint64_t h = fingerprintHash(drive(sys, warm, run));
    sys.closeTrace(h);
    return h;
}

/** Replay @p path under the given policy/engine; returns the hash. */
std::uint64_t
replayHash(const std::string &path, SchedulerPolicy pol, Engine eng)
{
    MultiCoreConfig cfg = replayConfig(path);
    cfg.scheduler.policy = pol;
    cfg.engine = eng;
    MultiCoreSystem sys(cfg);
    const TraceManifest &m = sys.traceReader()->manifest();
    return fingerprintHash(
        drive(sys, m.warmupInstructions, m.measureInstructions));
}

/** Capture one monitor on three shapes; replay each under both
 *  policies and demand the captured hash. */
void
checkReplayMatrix(const char *monitor, const char *bench)
{
    struct Shape
    {
        unsigned shards, clusters, fades;
    };
    const Shape shapes[] = {{1, 1, 1}, {4, 1, 1}, {4, 2, 2}};
    for (const Shape &s : shapes) {
        TempTrace t;
        std::uint64_t h =
            captureTo(t.path(),
                      matrixConfig(monitor, bench, s.shards, s.clusters,
                                   s.fades),
                      kWarm, kRun);
        for (SchedulerPolicy pol : {SchedulerPolicy::Lockstep,
                                    SchedulerPolicy::ParallelBatched})
            EXPECT_EQ(replayHash(t.path(), pol, Engine::PerCycle), h)
                << monitor << "/" << bench << " " << s.shards << "x"
                << s.clusters << "x" << s.fades << " policy="
                << int(pol);
    }
}

/** Random instruction with adversarial address/field distribution. */
Instruction
fuzzInst(Rng &rng)
{
    static const Addr edges[] = {
        0,          1,          0xFFFFFFFFull,       0x10000000ull,
        0x40000000ull, 0xE0000000ull, 0xF0000000ull,
        1ull << 63, ~std::uint64_t(0), (1ull << 63) - 1,
    };
    auto addr = [&]() -> Addr {
        switch (rng.range(4)) {
          case 0:
            return edges[rng.range(sizeof(edges) / sizeof(edges[0]))];
          case 1:
            return rng.next();
          default:
            return rng.next64();
        }
    };
    Instruction i;
    i.pc = addr();
    i.cls = InstClass(rng.range(unsigned(InstClass::NumClasses)));
    i.src1 = RegIndex(rng.range(64));
    i.src2 = RegIndex(rng.range(64));
    i.numSrc = std::uint8_t(rng.range(3));
    i.dst = RegIndex(rng.range(64));
    i.hasDst = rng.chance(0.5);
    i.memAddr = rng.chance(0.5) ? addr() : 0;
    i.memSize = rng.chance(0.8) ? 4 : std::uint8_t(rng.range(16));
    i.tid = ThreadId(rng.range(8));
    i.mispredict = rng.chance(0.1);
    i.mayPropagate = rng.chance(0.7);
    i.frameBytes = rng.chance(0.3) ? std::uint32_t(rng.next()) : 0;
    i.frameBase = rng.chance(0.3) ? addr() : 0;
    i.hlKind = EventKind(rng.range(unsigned(EventKind::ThreadJoin) + 1));
    i.truth = std::uint8_t(rng.range(32));
    return i;
}

void
expectSameInst(const Instruction &a, const Instruction &b, std::size_t at)
{
    EXPECT_EQ(a.pc, b.pc) << "record " << at;
    EXPECT_EQ(a.cls, b.cls) << "record " << at;
    EXPECT_EQ(a.src1, b.src1) << "record " << at;
    EXPECT_EQ(a.src2, b.src2) << "record " << at;
    EXPECT_EQ(a.numSrc, b.numSrc) << "record " << at;
    EXPECT_EQ(a.dst, b.dst) << "record " << at;
    EXPECT_EQ(a.hasDst, b.hasDst) << "record " << at;
    EXPECT_EQ(a.memAddr, b.memAddr) << "record " << at;
    EXPECT_EQ(a.memSize, b.memSize) << "record " << at;
    EXPECT_EQ(a.tid, b.tid) << "record " << at;
    EXPECT_EQ(a.mispredict, b.mispredict) << "record " << at;
    EXPECT_EQ(a.mayPropagate, b.mayPropagate) << "record " << at;
    EXPECT_EQ(a.frameBytes, b.frameBytes) << "record " << at;
    EXPECT_EQ(a.frameBase, b.frameBase) << "record " << at;
    EXPECT_EQ(a.hlKind, b.hlKind) << "record " << at;
    EXPECT_EQ(a.truth, b.truth) << "record " << at;
}

/** Write a small two-stream trace of fuzz records; returns them. */
std::vector<std::vector<Instruction>>
writeFuzzTrace(const std::string &path, std::uint64_t seed,
               std::size_t perStream, bool withManifest)
{
    Rng rng(seed);
    TraceWriter w(path);
    std::vector<std::vector<Instruction>> ref(2);
    for (unsigned s = 0; s < 2; ++s) {
        TraceStreamMeta meta;
        meta.profile = s == 0 ? "fuzz-a" : "fuzz-b";
        meta.seed = seed + s;
        meta.numThreads = s + 1;
        meta.procThreads = s * 4; // stream 1 records a 4-thread process
        w.addStream(meta);
    }
    for (std::size_t n = 0; n < perStream; ++n) {
        for (unsigned s = 0; s < 2; ++s) {
            Instruction i = fuzzInst(rng);
            ref[s].push_back(i);
            w.append(s, i);
        }
        if (rng.chance(0.01)) // exercise block boundaries
            w.flush(rng.range(2));
    }
    if (withManifest) {
        TraceManifest m;
        m.present = true;
        m.monitor = "MemCheck";
        m.warmupInstructions = 123;
        m.measureInstructions = 456;
        m.numShards = 2;
        m.hasFingerprint = true;
        m.fingerprintHash = 0xDEADBEEFCAFEF00DULL;
        w.setManifest(m);
    }
    w.close();
    return ref;
}

/** True when reading (parse + full decode of every stream) throws
 *  TraceError. Any other outcome (success, other exception, crash)
 *  reports false / fails the death harness. */
bool
readRejects(const std::string &path)
{
    try {
        TraceReader r(path);
        Instruction inst;
        for (unsigned s = 0; s < r.numStreams(); ++s) {
            TraceReader::Cursor c = r.cursor(s);
            while (c.next(inst)) {
            }
        }
    } catch (const TraceError &) {
        return true;
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// Replay bit-identity matrix (tentpole correctness contract)
// ---------------------------------------------------------------------

TEST(ReplayMatrix, MemLeak)
{
    checkReplayMatrix("MemLeak", "bzip");
}

TEST(ReplayMatrix, AddrCheck)
{
    checkReplayMatrix("AddrCheck", "gcc");
}

TEST(ReplayMatrix, MemCheck)
{
    checkReplayMatrix("MemCheck", "hmmer");
}

TEST(ReplayMatrix, TaintCheck)
{
    checkReplayMatrix("TaintCheck", "mcf");
}

TEST(ReplayMatrix, AtomCheck)
{
    checkReplayMatrix("AtomCheck", "ocean");
}

TEST(ReplayMatrix, UnmonitoredBaseline)
{
    checkReplayMatrix("", "astar");
}

// ---------------------------------------------------------------------
// Capture transparency
// ---------------------------------------------------------------------

TEST(Capture, DoesNotPerturbLiveRun)
{
    MultiCoreConfig cfg = matrixConfig("MemLeak", "hmmer", 2, 1, 1);
    MultiCoreSystem live(cfg);
    std::vector<std::uint64_t> liveFp = drive(live, kWarm, kRun);

    TempTrace t;
    cfg.traceOut = t.path();
    MultiCoreSystem taped(cfg);
    std::vector<std::uint64_t> tapedFp = drive(taped, kWarm, kRun);
    taped.closeTrace(fingerprintHash(tapedFp));

    // Full vectors, not just hashes: capture must be invisible.
    EXPECT_EQ(liveFp, tapedFp);
}

TEST(Capture, BytesPolicyInvariant)
{
    // The scheduler flushes capture buffers at every slice barrier in
    // shard order, so the file bytes cannot depend on which host
    // thread drove which shard.
    TempTrace a, b;
    MultiCoreConfig cfg = matrixConfig("AtomCheck", "ocean", 2, 1, 1);
    cfg.scheduler.policy = SchedulerPolicy::Lockstep;
    captureTo(a.path(), cfg, kWarm, kRun);
    cfg.scheduler.policy = SchedulerPolicy::ParallelBatched;
    captureTo(b.path(), cfg, kWarm, kRun);
    EXPECT_EQ(readFile(a.path()), readFile(b.path()));
}

TEST(Capture, ConfigFingerprintStamped)
{
    TempTrace t;
    MultiCoreConfig cfg = matrixConfig("AddrCheck", "astar", 1, 1, 1);
    captureTo(t.path(), cfg, 100, 200);
    cfg.traceOut.clear();
    TraceReader r(t.path());
    EXPECT_EQ(r.configFingerprint(), traceConfigFingerprint(cfg));
    EXPECT_NE(r.configFingerprint(), 0u);
}

// ---------------------------------------------------------------------
// Round-trip fuzz (satellite 1)
// ---------------------------------------------------------------------

TEST(RoundTrip, FuzzedRecordsSurviveExactly)
{
    TempTrace t;
    auto ref = writeFuzzTrace(t.path(), 0xF00D, 4000, true);

    TraceReader r(t.path());
    ASSERT_EQ(r.numStreams(), 2u);
    for (unsigned s = 0; s < 2; ++s) {
        EXPECT_EQ(r.stream(s).records, ref[s].size());
        TraceReader::Cursor c = r.cursor(s);
        Instruction got;
        for (std::size_t n = 0; n < ref[s].size(); ++n) {
            ASSERT_TRUE(c.next(got)) << "stream " << s << " record " << n;
            expectSameInst(ref[s][n], got, n);
        }
        EXPECT_FALSE(c.next(got));
        EXPECT_EQ(c.remaining(), 0u);
    }
}

TEST(RoundTrip, ManifestAndMetadata)
{
    TempTrace t;
    writeFuzzTrace(t.path(), 0xBEEF, 64, true);

    TraceReader r(t.path());
    EXPECT_EQ(r.version(), traceFormatVersion);
    EXPECT_EQ(r.stream(0).profile, "fuzz-a");
    EXPECT_EQ(r.stream(1).profile, "fuzz-b");
    EXPECT_EQ(r.stream(0).seed, 0xBEEFu);
    EXPECT_EQ(r.stream(1).seed, 0xBEF0u);
    EXPECT_EQ(r.stream(0).numThreads, 1u);
    EXPECT_EQ(r.stream(1).numThreads, 2u);
    EXPECT_EQ(r.stream(0).procThreads, 0u);
    EXPECT_EQ(r.stream(1).procThreads, 4u);

    const TraceManifest &m = r.manifest();
    ASSERT_TRUE(m.present);
    EXPECT_EQ(m.monitor, "MemCheck");
    EXPECT_EQ(m.warmupInstructions, 123u);
    EXPECT_EQ(m.measureInstructions, 456u);
    EXPECT_EQ(m.numShards, 2u);
    ASSERT_TRUE(m.hasFingerprint);
    EXPECT_EQ(m.fingerprintHash, 0xDEADBEEFCAFEF00DULL);
}

TEST(RoundTrip, NoManifestStillReadable)
{
    TempTrace t;
    writeFuzzTrace(t.path(), 0xABCD, 32, false);
    TraceReader r(t.path());
    EXPECT_FALSE(r.manifest().present);
    EXPECT_EQ(r.stream(0).records, 32u);
}

TEST(RoundTrip, AutoFlushAtBlockBoundary)
{
    TempTrace t;
    const std::size_t n = TraceWriter::maxBlockRecords + 5;
    {
        Rng rng(7);
        TraceWriter w(t.path());
        TraceStreamMeta meta;
        meta.profile = "big";
        w.addStream(meta);
        for (std::size_t i = 0; i < n; ++i)
            w.append(0, fuzzInst(rng));
        w.close();
    }
    TraceReader r(t.path());
    EXPECT_EQ(r.stream(0).records, n);
    // One full block auto-flushed plus the tail from close().
    EXPECT_EQ(r.streamBlocks(0), 2u);
}

TEST(RoundTrip, SyncRecordKinds)
{
    // The v2 thread/sync record kinds, spelled out one by one: lock
    // ops carry (lock addr, acquisition index), thread ops carry
    // (thread object addr, child tid), and the relocated mispredict
    // bit must survive alongside a nonzero hlKind.
    const EventKind kinds[] = {
        EventKind::TaintSource, EventKind::LockAcquire,
        EventKind::LockRelease, EventKind::ThreadCreate,
        EventKind::ThreadJoin,
    };
    TempTrace t;
    std::vector<Instruction> ref;
    {
        TraceWriter w(t.path());
        TraceStreamMeta meta;
        meta.profile = "sync";
        meta.procThreads = 4;
        w.addStream(meta);
        Addr pc = 0x00800000;
        for (EventKind k : kinds) {
            Instruction i;
            i.cls = InstClass::HighLevel;
            i.pc = pc;
            pc += 4;
            i.hlKind = k;
            i.frameBase = 0x40040000 + 64 * Addr(k);
            i.frameBytes = std::uint32_t(k);
            i.tid = ThreadId(unsigned(k) % 4);
            i.mispredict = true; // must ride flags1 bit 7, not hlKind
            ref.push_back(i);
            w.append(0, i);
        }
        w.close();
    }
    TraceReader r(t.path());
    EXPECT_EQ(r.stream(0).procThreads, 4u);
    TraceReader::Cursor c = r.cursor(0);
    Instruction got;
    for (std::size_t n = 0; n < ref.size(); ++n) {
        ASSERT_TRUE(c.next(got)) << "record " << n;
        expectSameInst(ref[n], got, n);
    }
    EXPECT_FALSE(c.next(got));
}

// ---------------------------------------------------------------------
// Malformed input: clean TraceError diagnostics, never UB (satellite 1)
// ---------------------------------------------------------------------

TEST(Malformed, MissingEmptyAndGarbageFiles)
{
    EXPECT_THROW(TraceReader("/nonexistent/fade.ftrace"), TraceError);

    TempTrace empty;
    writeFile(empty.path(), {});
    EXPECT_THROW(TraceReader(empty.path()), TraceError);

    TempTrace garbage;
    Rng rng(42);
    std::vector<std::uint8_t> junk(4096);
    for (auto &b : junk)
        b = std::uint8_t(rng.range(256));
    writeFile(garbage.path(), junk);
    EXPECT_THROW(TraceReader(garbage.path()), TraceError);

    // Valid magic followed by garbage must also be caught (header CRC).
    std::memcpy(junk.data(), "FADETRC1", 8);
    writeFile(garbage.path(), junk);
    EXPECT_THROW(TraceReader(garbage.path()), TraceError);
}

TEST(Malformed, OldVersionRejected)
{
    // A structurally well-formed v1 header (stream meta before the
    // procThreads field existed, correct CRC) must be refused by the
    // version check specifically — not misparsed, not a CRC error.
    std::vector<std::uint8_t> bytes = {'F', 'A', 'D', 'E',
                                       'T', 'R', 'C', '1'};
    std::vector<std::uint8_t> body;
    auto varint = [&body](std::uint64_t v) {
        do {
            std::uint8_t b = v & 0x7F;
            v >>= 7;
            body.push_back(b | (v ? 0x80 : 0));
        } while (v);
    };
    varint(1); // format version 1
    varint(1); // one stream
    const char *prof = "old";
    varint(3);
    body.insert(body.end(), prof, prof + 3);
    varint(0x1234); // seed
    varint(1);      // numThreads (v1 meta ends here before layout)
    varint(0x10000000);
    varint(0x1000);
    varint(0xE0000000);
    varint(0x4000);
    for (int i = 0; i < 8; ++i) // config fingerprint (fixed64)
        body.push_back(0);
    // Standard reflected CRC-32 over the header body, as the writer
    // computes it.
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::uint8_t b : body) {
        crc ^= b;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    crc ^= 0xFFFFFFFFu;
    bytes.insert(bytes.end(), body.begin(), body.end());
    for (int i = 0; i < 4; ++i)
        bytes.push_back(std::uint8_t(crc >> (8 * i)));

    TempTrace t;
    writeFile(t.path(), bytes);
    try {
        TraceReader r(t.path());
        FAIL() << "v1 trace accepted";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported trace version 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Malformed, EveryTruncationRejected)
{
    TempTrace t;
    writeFuzzTrace(t.path(), 0x7777, 256, true);
    std::vector<std::uint8_t> whole = readFile(t.path());
    ASSERT_GT(whole.size(), 64u);

    TempTrace cut;
    for (std::size_t len = 0; len < whole.size();
         len += 1 + len / 16) { // dense early, strided later
        std::vector<std::uint8_t> prefix(whole.begin(),
                                         whole.begin() +
                                             std::ptrdiff_t(len));
        writeFile(cut.path(), prefix);
        EXPECT_TRUE(readRejects(cut.path())) << "prefix " << len;
    }
    // The all-but-one-byte prefix specifically (end magic broken).
    std::vector<std::uint8_t> prefix(whole.begin(), whole.end() - 1);
    writeFile(cut.path(), prefix);
    EXPECT_TRUE(readRejects(cut.path()));
}

TEST(Malformed, ByteFlipsRejected)
{
    TempTrace t;
    writeFuzzTrace(t.path(), 0x5151, 256, true);
    std::vector<std::uint8_t> whole = readFile(t.path());

    TempTrace bad;
    for (std::size_t at = 0; at < whole.size();
         at += at < 128 ? 1 : 7) { // every header byte, strided body
        std::vector<std::uint8_t> mut = whole;
        mut[at] ^= 0xFF;
        writeFile(bad.path(), mut);
        EXPECT_TRUE(readRejects(bad.path())) << "flip at byte " << at;
    }
}

// ---------------------------------------------------------------------
// Replay-side guardrails
// ---------------------------------------------------------------------

TEST(ReplayGuards, WorkloadMismatchIsFatal)
{
    TempTrace t;
    captureTo(t.path(), matrixConfig("MemLeak", "bzip", 1, 1, 1), 200,
              400);
    MultiCoreConfig cfg = replayConfig(t.path());
    cfg.workloads[0].seed += 1;
    EXPECT_EXIT(MultiCoreSystem sys(cfg), testing::ExitedWithCode(1),
                "was captured from workload");
}

TEST(ReplayGuards, StreamCountMismatchIsFatal)
{
    TempTrace t;
    captureTo(t.path(), matrixConfig("MemLeak", "bzip", 1, 1, 1), 200,
              400);
    MultiCoreConfig cfg = replayConfig(t.path());
    cfg.numShards = 2;
    EXPECT_EXIT(MultiCoreSystem sys(cfg), testing::ExitedWithCode(1),
                "streams but this system has");
}

TEST(ReplayGuards, FetchPastEndOfStreamPanics)
{
    TempTrace t;
    {
        Rng rng(3);
        TraceWriter w(t.path());
        TraceStreamMeta meta;
        meta.profile = "tiny";
        w.addStream(meta);
        for (int i = 0; i < 5; ++i)
            w.append(0, fuzzInst(rng));
        w.close();
    }
    TraceReader r(t.path());
    ReplaySource src(r, 0);
    Instruction got;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(src.available());
        got = src.fetch();
    }
    EXPECT_FALSE(src.available());
    EXPECT_EQ(src.fetchNext(), nullptr);
    EXPECT_EQ(src.consumed(), 5u);
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_DEATH(src.fetch(), "exhausted");
}

TEST(ReplayGuards, ReplayConfigNeedsManifest)
{
    TempTrace t;
    writeFuzzTrace(t.path(), 0x1234, 16, false);
    EXPECT_THROW(replayConfig(t.path()), TraceError);
}

// ---------------------------------------------------------------------
// Golden corpus (committed traces; CI replays them on every change)
// ---------------------------------------------------------------------

const char *const kGoldenFiles[] = {
    "hmmer_memleak_n1.ftrace",   "gcc_addrcheck_n4.ftrace",
    "mcf_taintcheck_n1.ftrace",  "ocean_atomcheck_n2.ftrace",
    "astar_memcheck_2x2x2.ftrace",
    "ocean_mt4_racecheck_2x2.ftrace",
};

std::string
goldenPath(const char *f)
{
    return std::string(FADE_SOURCE_DIR "/tests/golden/") + f;
}

TEST(GoldenCorpus, ReplaysToRecordedHash)
{
    for (const char *f : kGoldenFiles) {
        std::string path = goldenPath(f);
        SCOPED_TRACE(path);
        TraceReader r(path);
        ASSERT_TRUE(r.manifest().present);
        ASSERT_TRUE(r.manifest().hasFingerprint);
        EXPECT_EQ(replayHash(path, SchedulerPolicy::Lockstep,
                             Engine::PerCycle),
                  r.manifest().fingerprintHash);
    }
}

// ---------------------------------------------------------------------
// Run-grain engine (modeled timing: functional equality, not hashes)
// ---------------------------------------------------------------------

/** Replay the full captured window under @p eng and return the
 *  engine-invariant functional fingerprint. */
std::vector<std::uint64_t>
replayFunctional(const std::string &path, Engine eng)
{
    MultiCoreConfig cfg = replayConfig(path);
    cfg.engine = eng;
    MultiCoreSystem sys(cfg);
    const TraceManifest &m = sys.traceReader()->manifest();
    sys.warmup(m.warmupInstructions);
    sys.run(m.measureInstructions);
    return sys.functionalFingerprint();
}

TEST(RunGrainReplay, CapturedStreamsFunctionallyEngineInvariant)
{
    // A run-grain capture ends every stream at the exact per-shard
    // retirement quota: the engine fetches only what it retires, so
    // there is no commit-width overshoot and no speculative fetch-ahead
    // tail. Replaying the whole stream therefore covers the identical
    // instruction window under the per-cycle reference too (the stream
    // runs out exactly at the quota, so per-cycle cannot overshoot
    // either), and every functional value — retirement/event counts,
    // filter verdicts, handler work, bug reports — must match bit for
    // bit.
    struct Shape
    {
        unsigned shards, clusters, fades;
    };
    const Shape shapes[] = {{1, 1, 1}, {4, 2, 2}};
    for (const Shape &s : shapes) {
        SCOPED_TRACE(testing::Message() << s.shards << "x" << s.clusters
                                        << "x" << s.fades);
        TempTrace t;
        std::vector<std::uint64_t> live;
        {
            MultiCoreConfig cfg = matrixConfig("AddrCheck", "gcc",
                                               s.shards, s.clusters,
                                               s.fades);
            cfg.engine = Engine::RunGrain;
            cfg.traceOut = t.path();
            MultiCoreSystem sys(cfg);
            sys.run(kWarm + kRun);
            live = sys.functionalFingerprint();
            sys.closeTrace(0);
        }
        EXPECT_EQ(replayFunctional(t.path(), Engine::RunGrain), live);
        EXPECT_EQ(replayFunctional(t.path(), Engine::PerCycle), live);
    }
}

TEST(RunGrainReplay, GoldenCorpusReplaysDeterministically)
{
    // The goldens were captured under the per-cycle engine with its
    // fetch-ahead margin, so the run-grain engine (which fetches less)
    // replays them fine. Its full-result hash legitimately differs from
    // the recorded per-cycle hash (modeled timing), but must be
    // reproducible run over run — that is what lets run-grain results
    // be pinned by goldens of their own.
    for (const char *f : kGoldenFiles) {
        std::string path = goldenPath(f);
        SCOPED_TRACE(path);
        std::uint64_t h = replayHash(path, SchedulerPolicy::Lockstep,
                                     Engine::RunGrain);
        EXPECT_EQ(replayHash(path, SchedulerPolicy::Lockstep,
                             Engine::RunGrain),
                  h);
    }
}

} // namespace fade
