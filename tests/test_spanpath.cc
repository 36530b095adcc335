/**
 * @file
 * Span-protocol differential tests.
 *
 * Instruction sources hand out spans (InstSource::stageRun/fetchSpan),
 * the per-cycle core dispatches spans of one, and the run-grain driver
 * consumes whole spans with bulk event extraction. That is only legal
 * because span size is invisible to every stream: no source produces
 * an instruction ahead of its consumption. This suite pins that
 * contract:
 *
 *  - span-synthesized streams equal one-at-a-time streams for every
 *    modelled profile, across span sizes (including 1 and sizes past
 *    the run-grain driver's 64), with random span sizes interleaved
 *    with stageRun() probes;
 *  - injectBug() between spans lands at the same stream position as
 *    in one-at-a-time generation;
 *  - ThreadedSource spans reproduce its one-at-a-time round-robin
 *    stream;
 *  - capture through the span tee and replay through block-decoded
 *    spans reproduce the live stream record for record;
 *  - bulk event extraction (EventProducer::commitSpan) emits exactly
 *    the events the per-cycle commit() does, event for event.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/source.hh"
#include "monitor/factory.hh"
#include "sim/queue.hh"
#include "sim/random.hh"
#include "system/producer.hh"
#include "testutil.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "trace/threads.hh"
#include "trace/tracefile.hh"

namespace fade
{

namespace
{

/** Exact field equality (memcmp is unreliable across padding). */
bool
sameInst(const Instruction &a, const Instruction &b)
{
    return a.pc == b.pc && a.cls == b.cls && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.numSrc == b.numSrc && a.dst == b.dst &&
           a.hasDst == b.hasDst && a.memAddr == b.memAddr &&
           a.memSize == b.memSize && a.tid == b.tid &&
           a.mispredict == b.mispredict &&
           a.mayPropagate == b.mayPropagate &&
           a.frameBytes == b.frameBytes && a.frameBase == b.frameBase &&
           a.hlKind == b.hlKind && a.truth == b.truth;
}

/** Drain @p n instructions via stageRun + fetchSpan in @p stage-sized
 *  spans, comparing against @p ref served one at a time. */
void
expectSpansMatchOnDemand(InstSource &batch, InstSource &ref,
                         std::uint64_t n, std::size_t stage)
{
    std::uint64_t seen = 0;
    while (seen < n) {
        std::size_t want = std::size_t(
            stage < n - seen ? stage : n - seen);
        ASSERT_EQ(batch.stageRun(want), want);
        std::size_t got = 0;
        while (got < want) {
            InstSpan s = batch.fetchSpan(want - got);
            ASSERT_FALSE(s.empty());
            for (std::size_t i = 0; i < s.count; ++i) {
                Instruction want_i = test::fetchOne(ref);
                ASSERT_TRUE(sameInst(s.data[i], want_i))
                    << "diverged at instruction " << (seen + got + i)
                    << " (stage size " << stage << ")";
            }
            got += s.count;
        }
        seen += want;
    }
}

class SpanPathProfileSweep
    : public ::testing::TestWithParam<std::string>
{
  protected:
    /** SPEC and parallel benchmarks use different profile factories. */
    BenchProfile
    profile() const
    {
        bool parallel = std::find(parallelBenchmarks().begin(),
                                  parallelBenchmarks().end(),
                                  GetParam()) != parallelBenchmarks().end();
        return parallel ? parallelProfile(GetParam())
                        : specProfile(GetParam());
    }
};

} // namespace

/** Span synthesis == one-at-a-time synthesis for every profile, across
 *  span sizes that cover the degenerate (1), short, driver (64) and
 *  long shapes. */
TEST_P(SpanPathProfileSweep, BatchSynthesisMatchesOnDemand)
{
    for (std::size_t stage : {std::size_t(1), std::size_t(7),
                              std::size_t(64), std::size_t(257)}) {
        TraceGenerator batch(profile());
        TraceGenerator ref(profile());
        expectSpansMatchOnDemand(batch, ref, 20000, stage);
    }
}

/** Random span sizes interleaved with stageRun() probes consume the
 *  same stream, with the same emitted() count, as one-at-a-time
 *  fetches: a probe never produces an instruction. */
TEST_P(SpanPathProfileSweep, MixedConsumptionMatchesOnDemand)
{
    TraceGenerator batch(profile());
    TraceGenerator ref(profile());
    Rng rng(0xc0ffee);
    std::uint64_t seen = 0;
    while (seen < 20000) {
        for (unsigned probes = rng.range(3); probes > 0; --probes) {
            std::size_t n = 1 + rng.range(96);
            ASSERT_EQ(batch.stageRun(n), n);
        }
        InstSpan s = batch.fetchSpan(1 + rng.range(96));
        ASSERT_FALSE(s.empty());
        for (std::size_t k = 0; k < s.count; ++k)
            ASSERT_TRUE(sameInst(s.data[k], test::fetchOne(ref)))
                << "diverged at instruction " << (seen + k);
        seen += s.count;
        ASSERT_EQ(batch.emitted(), ref.emitted());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SpanPathProfileSweep,
    ::testing::Values("astar", "bzip", "gcc", "gobmk", "hmmer",
                      "libquantum", "mcf", "omnetpp", "water", "ocean",
                      "blackscholes", "streamcluster", "fluidanimate"));

/** injectBug() between spans lands at the same stream position as the
 *  identical injection in one-at-a-time generation. */
TEST(SpanPathBugs, StageBoundaryInjection)
{
    for (TruthBits kind : {truthAccessUnallocated, truthUseUninit,
                           truthLeakDrop}) {
        TraceGenerator batch(specProfile("mcf"));
        TraceGenerator ref(specProfile("mcf"));
        std::uint64_t at = 0;
        for (unsigned round = 0; round < 6; ++round) {
            // A few spans, then a bug at the span boundary.
            for (std::size_t stage : {std::size_t(64), std::size_t(13)}) {
                expectSpansMatchOnDemand(batch, ref, stage, stage);
                at += stage;
            }
            batch.injectBug(kind);
            ref.injectBug(kind);
        }
        // The spliced instructions (and everything after) line up.
        bool sawTruth = false;
        for (unsigned k = 0; k < 4096; ++k) {
            Instruction b = test::fetchOne(batch);
            ASSERT_TRUE(sameInst(b, test::fetchOne(ref)));
            sawTruth = sawTruth || b.truth == kind;
        }
        EXPECT_TRUE(sawTruth) << "bug kind " << unsigned(kind)
                              << " never surfaced";
    }
}

/** ThreadedSource spans reproduce its round-robin one-at-a-time
 *  stream (quantum rotation and per-thread draw order included). */
TEST(SpanPathThreaded, MatchesOnDemand)
{
    for (unsigned threads : {2u, 3u, 4u}) {
        BenchProfile p = threadedProfile("ocean", threads);
        for (std::size_t stage : {std::size_t(1), std::size_t(17),
                                  std::size_t(64), std::size_t(300)}) {
            ThreadedSource batch(p);
            ThreadedSource ref(p);
            expectSpansMatchOnDemand(batch, ref, 12000, stage);
        }
    }
}

/** Capture consumed through the span tee, then replay consumed
 *  through block-decoded spans, reproduce the live stream. */
TEST(SpanPathTrace, CaptureReplayRoundTrip)
{
    test::TempFile tmp("fade_spanpath");
    constexpr std::uint64_t kRecords = 30000;

    {
        TraceWriter writer(tmp.path());
        TraceStreamMeta meta;
        meta.profile = "gcc";
        unsigned stream = writer.addStream(meta);
        TraceGenerator gen(specProfile("gcc"));
        CaptureSource tee(gen, writer, stream);
        std::uint64_t seen = 0;
        while (seen < kRecords) {
            std::size_t want = std::size_t(
                seen + 64 <= kRecords ? 64 : kRecords - seen);
            ASSERT_EQ(tee.stageRun(want), want);
            InstSpan s = tee.fetchSpan(want);
            ASSERT_EQ(s.count, want);
            seen += s.count;
        }
        writer.close();
    }

    TraceReader reader(tmp.path());
    TraceGenerator live(specProfile("gcc"));

    // Span replay == live.
    {
        ReplaySource rep(reader, 0);
        std::uint64_t seen = 0;
        while (seen < kRecords) {
            rep.stageRun(64);
            InstSpan s = rep.fetchSpan(64);
            ASSERT_FALSE(s.empty());
            for (std::size_t i = 0; i < s.count; ++i)
                ASSERT_TRUE(sameInst(s.data[i], test::fetchOne(live)));
            seen += s.count;
        }
        EXPECT_EQ(rep.remaining(), 0u);
        EXPECT_EQ(rep.consumed(), kRecords);
    }

    // Per-record replay == span replay (spans of one against 97).
    {
        ReplaySource byOne(reader, 0);
        ReplaySource bySpan(reader, 0);
        std::uint64_t seen = 0;
        while (seen < kRecords) {
            InstSpan s = bySpan.fetchSpan(97);
            ASSERT_FALSE(s.empty());
            for (std::size_t i = 0; i < s.count; ++i) {
                InstSpan r = byOne.fetchSpan(1);
                ASSERT_EQ(r.count, 1u);
                ASSERT_TRUE(sameInst(s.data[i], *r.data));
            }
            seen += s.count;
        }
        EXPECT_TRUE(byOne.fetchSpan(1).empty());
        EXPECT_TRUE(bySpan.fetchSpan(1).empty());
    }
}

/** Bulk extraction (EventProducer::commitSpan, the run-grain span
 *  path) emits exactly the events the per-cycle commit() pushes, one
 *  instruction at a time, event for event, and decides the same
 *  verdicts through Monitor::monitoredSpan as per-instruction
 *  monitored(). The window
 *  is a four-thread profile with injected bugs, so thread switches,
 *  instruction, stack and high-level events all occur. */
TEST(SpanPathExtraction, CommitSpanMatchesPerInstruction)
{
    constexpr std::size_t kSpan = 64;
    for (const char *name : {"AddrCheck", "MemLeak", "TaintCheck"}) {
        SCOPED_TRACE(name);
        std::unique_ptr<Monitor> bulkMon = makeMonitor(name);
        std::unique_ptr<Monitor> oneMon = makeMonitor(name);
        // The bulk producer needs a bound queue only as an enable flag.
        BoundedQueue<MonEvent> bulkEq(1), oneEq(1);
        EventProducer bulk(bulkMon.get(), &bulkEq, nullptr);
        EventProducer one(oneMon.get(), &oneEq, nullptr);
        TraceGenerator gen(parallelProfile("ocean"));
        std::uint8_t verdicts[kSpan];
        MonEvent events[kSpan];
        std::uint64_t stackEvents = 0, highLevelEvents = 0;
        for (unsigned round = 0; round < 400; ++round) {
            if (round % 100 == 50) {
                gen.injectBug(truthTaintedJump);
                gen.injectBug(truthLeakDrop);
            }
            InstSpan s = gen.fetchSpan(1 + round % kSpan);
            bulkMon->monitoredSpan(s.data, s.count, verdicts);
            std::size_t nev =
                bulk.commitSpan(s.data, verdicts, s.count, events);
            std::size_t e = 0;
            for (std::size_t i = 0; i < s.count; ++i) {
                bool monitored = oneMon->monitored(s.data[i]);
                ASSERT_EQ(monitored, verdicts[i] != 0);
                ASSERT_TRUE(one.commit(s.data[i]));
                if (oneEq.empty())
                    continue;
                ASSERT_LT(e, nev);
                const MonEvent &a = events[e++];
                const MonEvent &b = oneEq.front();
                ASSERT_TRUE(a.kind == b.kind && a.eventId == b.eventId &&
                            a.appAddr == b.appAddr && a.appPc == b.appPc &&
                            a.src1 == b.src1 && a.src2 == b.src2 &&
                            a.numSrc == b.numSrc && a.dst == b.dst &&
                            a.hasDst == b.hasDst && a.len == b.len &&
                            a.tid == b.tid && a.shard == b.shard &&
                            a.unit == b.unit && a.truth == b.truth &&
                            a.seq == b.seq)
                    << "event " << b.seq << " differs";
                stackEvents += b.isStackUpdate();
                highLevelEvents += b.isHighLevel();
                oneEq.pop();
            }
            ASSERT_EQ(e, nev);
        }
        EXPECT_EQ(bulk.retired(), one.retired());
        EXPECT_EQ(bulk.produced(), one.produced());
        EXPECT_GT(one.produced(), 0u);
        EXPECT_GT(stackEvents, 0u);
        EXPECT_GT(highLevelEvents, 0u);
    }
}

} // namespace fade

