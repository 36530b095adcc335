/**
 * @file
 * Span fast-path differential tests (the PR 4 bit-identity
 * discipline applied to batched synthesis and bulk extraction).
 *
 * The batched functional fast path — TraceGenerator::stageRun block
 * synthesis served through InstSource::fetchSpan, the span protocol on
 * ThreadedSource / CaptureSource / ReplaySource, and the run-grain
 * driver's bulk event extraction — is only legal because every staged
 * or bulk-consumed stream is instruction-for-instruction and
 * draw-for-draw identical to on-demand generation. This suite pins
 * that contract:
 *
 *  - batch-synthesized streams equal on-demand streams for every
 *    modelled profile, across stage sizes (including size 1 and sizes
 *    that straddle the staging array), with consumption interleaving
 *    fetch(), fetchNext() and fetchSpan() arbitrarily;
 *  - injectBug() splices at stage boundaries land at the same stream
 *    position as in on-demand generation;
 *  - ThreadedSource spans reproduce its round-robin fetch() stream;
 *  - capture through the span tee and replay through block-decoded
 *    spans reproduce the live stream record for record;
 *  - the run-grain engine produces identical result fingerprints
 *    (functional AND modeled-timing values) with the span path forced
 *    off (SystemConfig::spanFastPath), i.e. the fast path is invisible
 *    to every simulated value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <string>
#include <vector>

#include "cpu/source.hh"
#include "sim/random.hh"
#include "system/multicore.hh"
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
 *  batches, comparing against @p ref served on demand. */
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
                Instruction want_i = ref.fetch();
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

/** Batch synthesis == on-demand synthesis for every profile, across
 *  stage sizes that cover the degenerate (1), sub-batch, driver (64)
 *  and multi-block shapes. */
TEST_P(SpanPathProfileSweep, BatchSynthesisMatchesOnDemand)
{
    for (std::size_t stage : {std::size_t(1), std::size_t(7),
                              std::size_t(64), std::size_t(257)}) {
        TraceGenerator batch(profile());
        TraceGenerator ref(profile());
        expectSpansMatchOnDemand(batch, ref, 20000, stage);
    }
}

/** Consumption may interleave fetch(), fetchNext() and fetchSpan()
 *  against the same staged stream without perturbing it. */
TEST_P(SpanPathProfileSweep, MixedConsumptionMatchesOnDemand)
{
    TraceGenerator batch(profile());
    TraceGenerator ref(profile());
    Rng rng(0xc0ffee);
    std::uint64_t seen = 0;
    while (seen < 20000) {
        std::size_t want = 1 + rng.range(96);
        ASSERT_EQ(batch.stageRun(want), want);
        std::size_t got = 0;
        while (got < want) {
            switch (rng.range(3)) {
              case 0: {
                Instruction i = batch.fetch();
                ASSERT_TRUE(sameInst(i, ref.fetch()));
                ++got;
                break;
              }
              case 1: {
                const Instruction *i = batch.fetchNext();
                ASSERT_NE(i, nullptr);
                ASSERT_TRUE(sameInst(*i, ref.fetch()));
                ++got;
                break;
              }
              default: {
                InstSpan s = batch.fetchSpan(1 + rng.range(32));
                ASSERT_FALSE(s.empty());
                for (std::size_t k = 0; k < s.count; ++k)
                    ASSERT_TRUE(sameInst(s.data[k], ref.fetch()));
                got += s.count;
                break;
              }
            }
        }
        seen += want;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SpanPathProfileSweep,
    ::testing::Values("astar", "bzip", "gcc", "gobmk", "hmmer",
                      "libquantum", "mcf", "omnetpp", "water", "ocean",
                      "blackscholes", "streamcluster", "fluidanimate"));

/** injectBug() between drained stages lands at the same stream
 *  position as the identical injection in on-demand generation. */
TEST(SpanPathBugs, StageBoundaryInjection)
{
    for (TruthBits kind : {truthAccessUnallocated, truthUseUninit,
                           truthLeakDrop}) {
        TraceGenerator batch(specProfile("mcf"));
        TraceGenerator ref(specProfile("mcf"));
        std::uint64_t at = 0;
        for (unsigned round = 0; round < 6; ++round) {
            // A few stages, then a bug at the drained boundary.
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
            Instruction b = batch.fetch();
            ASSERT_TRUE(sameInst(b, ref.fetch()));
            sawTruth = sawTruth || b.truth == kind;
        }
        EXPECT_TRUE(sawTruth) << "bug kind " << unsigned(kind)
                              << " never surfaced";
    }
}

/** ThreadedSource spans reproduce its round-robin on-demand stream
 *  (quantum rotation and per-thread draw order included). */
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
                ASSERT_TRUE(sameInst(s.data[i], live.fetch()));
            seen += s.count;
        }
        EXPECT_EQ(rep.remaining(), 0u);
        EXPECT_EQ(rep.consumed(), kRecords);
    }

    // Per-record replay == span replay (fetchNext against fetchSpan).
    {
        ReplaySource byOne(reader, 0);
        ReplaySource bySpan(reader, 0);
        std::uint64_t seen = 0;
        while (seen < kRecords) {
            InstSpan s = bySpan.fetchSpan(97);
            ASSERT_FALSE(s.empty());
            for (std::size_t i = 0; i < s.count; ++i) {
                const Instruction *r = byOne.fetchNext();
                ASSERT_NE(r, nullptr);
                ASSERT_TRUE(sameInst(s.data[i], *r));
            }
            seen += s.count;
        }
        EXPECT_EQ(byOne.fetchNext(), nullptr);
        EXPECT_TRUE(bySpan.fetchSpan(1).empty());
    }
}

/** The run-grain span fast path is invisible to every simulated
 *  value: identical result fingerprints (functional results, modeled
 *  timing, queue statistics, bug reports) with spanFastPath off. */
TEST(SpanPathEngine, ForcedOffFingerprintIdentical)
{
    for (const char *monitor : {"AddrCheck", "TaintCheck", ""}) {
        for (unsigned fades : {1u, 2u}) {
            MultiCoreConfig on;
            on.engine = Engine::RunGrain;
            on.monitor = monitor;
            on.workloads = {specProfile("astar"), specProfile("gcc")};
            on.numShards = 2;
            on.shard.fadesPerShard = fades;
            MultiCoreConfig off = on;
            off.shard.spanFastPath = false;

            auto run = [&](const MultiCoreConfig &cfg) {
                MultiCoreSystem sys(cfg);
                // The K = 2 leg must really build two units per shard
                // (an unmonitored shard builds none).
                if (*monitor) {
                    for (unsigned i = 0; i < sys.numShards(); ++i)
                        EXPECT_EQ(sys.shard(i).fadeGroup()->size(), fades);
                }
                sys.warmup(2000);
                MultiCoreResult r = sys.run(8000);
                return resultFingerprint(sys, r);
            };
            EXPECT_EQ(run(on), run(off))
                << "monitor=" << monitor << " fades=" << fades;
        }
    }
}

} // namespace fade

