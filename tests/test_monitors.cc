/** @file Functional tests for the lifeguards. */

#include <gtest/gtest.h>

#include <array>

#include "core/filter_logic.hh"
#include "monitor/addrcheck.hh"
#include "monitor/atomcheck.hh"
#include "monitor/factory.hh"
#include "monitor/memcheck.hh"
#include "monitor/memleak.hh"
#include "monitor/process.hh"
#include "monitor/taintcheck.hh"
#include "sim/random.hh"
#include "system/multicore.hh"
#include "system/system.hh"
#include "trace/profile.hh"

namespace fade
{

namespace
{

UnfilteredEvent
instEvent(std::uint8_t id, Addr addr, RegIndex s1, RegIndex s2,
          RegIndex dst, std::uint8_t nsrc, ThreadId tid = 0)
{
    UnfilteredEvent u;
    u.ev.kind = EventKind::Inst;
    u.ev.eventId = id;
    u.ev.appAddr = addr;
    u.ev.src1 = s1;
    u.ev.src2 = s2;
    u.ev.numSrc = nsrc;
    u.ev.dst = dst;
    u.ev.hasDst = true;
    u.ev.tid = tid;
    return u;
}

UnfilteredEvent
highLevel(EventKind k, Addr base, std::uint32_t len, RegIndex dst = 2)
{
    UnfilteredEvent u;
    u.ev.kind = k;
    u.ev.appAddr = base;
    u.ev.len = len;
    u.ev.dst = dst;
    u.ev.hasDst = true;
    return u;
}

} // namespace

TEST(Factory, AllMonitorsConstructible)
{
    for (const auto &name : monitorNames()) {
        auto m = makeMonitor(name);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->name(), name);
    }
}

TEST(Factory, Classification)
{
    EXPECT_TRUE(isPropagationMonitor("MemLeak"));
    EXPECT_TRUE(isPropagationMonitor("MemCheck"));
    EXPECT_TRUE(isPropagationMonitor("TaintCheck"));
    EXPECT_FALSE(isPropagationMonitor("AddrCheck"));
    EXPECT_FALSE(isPropagationMonitor("AtomCheck"));
}

// ---------------------------------------------------------------- Addr

TEST(AddrCheckTest, DetectsUnallocatedAccess)
{
    AddrCheck m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(instEvent(evLoad, 0x9000, 1, 0, 5, 1), ctx);
    ASSERT_EQ(m.reports().size(), 1u);
    EXPECT_EQ(m.reports()[0].kind, "unallocated-access");
    // Suppression: the same word does not report twice.
    m.handleEvent(instEvent(evLoad, 0x9000, 1, 0, 5, 1), ctx);
    EXPECT_EQ(m.reports().size(), 1u);
}

TEST(AddrCheckTest, MallocFreeLifecycle)
{
    AddrCheck m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(highLevel(EventKind::Malloc, 0x40000000, 64), ctx);
    m.handleEvent(instEvent(evStore, 0x40000010, 4, 0, 0, 1), ctx);
    EXPECT_TRUE(m.reports().empty());
    m.handleEvent(highLevel(EventKind::Free, 0x40000000, 64), ctx);
    m.handleEvent(instEvent(evLoad, 0x40000010, 1, 0, 5, 1), ctx);
    ASSERT_EQ(m.reports().size(), 1u) << "use after free detected";
}

TEST(AddrCheckTest, StackFrameLifecycle)
{
    AddrCheck m;
    MonitorContext ctx(m.shadowDefault());
    UnfilteredEvent call;
    call.ev.kind = EventKind::StackCall;
    call.ev.appAddr = 0xE0000100;
    call.ev.len = 32;
    m.handleEvent(call, ctx);
    EXPECT_EQ(ctx.shadow.readApp(0xE0000100), AddrCheck::mdAllocated);
    UnfilteredEvent ret = call;
    ret.ev.kind = EventKind::StackReturn;
    m.handleEvent(ret, ctx);
    EXPECT_EQ(ctx.shadow.readApp(0xE0000100), AddrCheck::mdUnallocated);
}

TEST(AddrCheckTest, MonitorsOnlyNonStackMemRefs)
{
    AddrCheck m;
    Instruction ld;
    ld.cls = InstClass::Load;
    ld.memAddr = 0x40000000;
    EXPECT_TRUE(m.monitored(ld));
    ld.memAddr = stackTop - 64;
    EXPECT_FALSE(m.monitored(ld)) << "stack accesses are eliminated";
    Instruction alu;
    alu.cls = InstClass::IntAlu;
    EXPECT_FALSE(m.monitored(alu));
}

TEST(AddrCheckTest, CleanRunsQuietOnAllSpecProfiles)
{
    // Regression for a generator edge case: a stride-1 heap walk could
    // continue into a block freed after the walk began, which AddrCheck
    // correctly flagged as use-after-free — but no clean (no-injection)
    // stream may contain one. astar tripped it first; at longer slices
    // five of the eight profiles did.
    for (const std::string &bench : specBenchmarks()) {
        SCOPED_TRACE(bench);
        auto mon = makeMonitor("AddrCheck");
        MonitoringSystem sys(SystemConfig{}, specProfile(bench),
                             mon.get());
        sys.warmup(25000);
        sys.run(60000);
        EXPECT_TRUE(mon->reports().empty())
            << mon->reports().size() << " spurious report(s), first: "
            << (mon->reports().empty() ? ""
                                       : mon->reports().front().kind);
    }
}

// ---------------------------------------------------------------- Mem

TEST(MemCheckTest, PropagatesDefinedness)
{
    MemCheck m;
    MonitorContext ctx(m.shadowDefault());
    ctx.regMd.fill(m.regMdInit());
    // Load from uninit memory makes the register uninit.
    ctx.shadow.writeApp(0x1000, MemCheck::mdUninit);
    m.handleEvent(instEvent(evLoad, 0x1000, 1, 0, 5, 1), ctx);
    EXPECT_EQ(ctx.regMd.read(0, 5), MemCheck::mdUninit);
    // ALU on uninit source taints the destination.
    m.handleEvent(instEvent(evAluRR, 0, 5, 6, 7, 2), ctx);
    EXPECT_EQ(ctx.regMd.read(0, 7), MemCheck::mdUninit);
    // Jump through the uninit register reports.
    m.handleEvent(instEvent(evJumpInd, 0, 7, 0, 0, 1), ctx);
    ASSERT_EQ(m.reports().size(), 1u);
    EXPECT_EQ(m.reports()[0].kind, "uninit-use");
}

TEST(MemCheckTest, StoreInitializesMemory)
{
    MemCheck m;
    MonitorContext ctx(m.shadowDefault());
    ctx.regMd.fill(m.regMdInit());
    m.handleEvent(highLevel(EventKind::Malloc, 0x40000000, 32), ctx);
    EXPECT_EQ(ctx.shadow.readApp(0x40000000), MemCheck::mdUninit);
    m.handleEvent(instEvent(evStore, 0x40000000, 4, 0, 0, 1), ctx);
    EXPECT_EQ(ctx.shadow.readApp(0x40000000), MemCheck::mdInit);
}

TEST(MemCheckTest, ReportsInvalidAccess)
{
    MemCheck m;
    MonitorContext ctx(m.shadowDefault());
    ctx.regMd.fill(m.regMdInit());
    m.handleEvent(instEvent(evLoad, 0x7000, 1, 0, 5, 1), ctx);
    ASSERT_EQ(m.reports().size(), 1u);
    EXPECT_EQ(m.reports()[0].kind, "invalid-read");
}

TEST(MemCheckTest, TaintSourceInitializesBuffer)
{
    MemCheck m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(highLevel(EventKind::TaintSource, 0x40001000, 64), ctx);
    EXPECT_EQ(ctx.shadow.readApp(0x40001000), MemCheck::mdInit);
}

// --------------------------------------------------------------- Taint

TEST(TaintCheckTest, TaintFlowsToExploit)
{
    TaintCheck m;
    MonitorContext ctx(m.shadowDefault());
    // Network input taints a buffer.
    m.handleEvent(highLevel(EventKind::TaintSource, 0x40002000, 64), ctx);
    EXPECT_EQ(ctx.shadow.readApp(0x40002000), TaintCheck::mdTainted);
    // Load brings taint into r5, arithmetic spreads to r7.
    m.handleEvent(instEvent(evLoad, 0x40002000, 1, 0, 5, 1), ctx);
    m.handleEvent(instEvent(evAluRR, 0, 5, 6, 7, 2), ctx);
    EXPECT_EQ(ctx.regMd.read(0, 7), TaintCheck::mdTainted);
    // Indirect jump through the tainted register: alert.
    m.handleEvent(instEvent(evJumpInd, 0, 7, 0, 0, 1), ctx);
    ASSERT_EQ(m.reports().size(), 1u);
    EXPECT_EQ(m.reports()[0].kind, "tainted-jump");
}

TEST(TaintCheckTest, UntaintedJumpIsSilent)
{
    TaintCheck m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(instEvent(evJumpInd, 0, 3, 0, 0, 1), ctx);
    EXPECT_TRUE(m.reports().empty());
}

TEST(TaintCheckTest, StoreAndClearOnFree)
{
    TaintCheck m;
    MonitorContext ctx(m.shadowDefault());
    ctx.regMd.write(0, 4, TaintCheck::mdTainted);
    m.handleEvent(instEvent(evStore, 0x40003000, 4, 0, 0, 1), ctx);
    EXPECT_EQ(ctx.shadow.readApp(0x40003000), TaintCheck::mdTainted);
    m.handleEvent(highLevel(EventKind::Free, 0x40003000, 16), ctx);
    EXPECT_EQ(ctx.shadow.readApp(0x40003000), TaintCheck::mdUntainted);
}

// -------------------------------------------------------------- Leak

TEST(MemLeakTest, DetectsDroppedLastReference)
{
    MemLeak m;
    MonitorContext ctx(m.shadowDefault());
    // malloc -> pointer in r2 (refcount 1)
    m.handleEvent(highLevel(EventKind::Malloc, 0x40000000, 64, 2), ctx);
    EXPECT_EQ(ctx.regMd.read(0, 2), MemLeak::mdPointer);
    ASSERT_EQ(m.contexts().size(), 1u);
    EXPECT_EQ(m.contexts()[0].refs, 1);
    // Overwrite r2 with data: the only reference dies -> leak.
    m.handleEvent(instEvent(evAluRR, 0, 6, 7, 2, 2), ctx);
    EXPECT_EQ(m.leaksDetected(), 1u);
    ASSERT_EQ(m.reports().size(), 1u);
    EXPECT_EQ(m.reports()[0].kind, "memory-leak");
}

TEST(MemLeakTest, NoLeakWhenFreed)
{
    MemLeak m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(highLevel(EventKind::Malloc, 0x40000000, 64, 2), ctx);
    m.handleEvent(highLevel(EventKind::Free, 0x40000000, 64), ctx);
    m.handleEvent(instEvent(evAluRR, 0, 6, 7, 2, 2), ctx);
    EXPECT_EQ(m.leaksDetected(), 0u);
}

TEST(MemLeakTest, ReferenceCountingThroughMemory)
{
    MemLeak m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(highLevel(EventKind::Malloc, 0x40000000, 64, 2), ctx);
    // Store the pointer to memory: refcount 2.
    m.handleEvent(instEvent(evStore, 0x50000000, 2, 0, 0, 1), ctx);
    EXPECT_EQ(m.contexts()[0].refs, 2);
    EXPECT_EQ(ctx.shadow.readApp(0x50000000), MemLeak::mdPointer);
    // Overwrite the register: refcount 1, no leak yet.
    m.handleEvent(instEvent(evAluRR, 0, 6, 7, 2, 2), ctx);
    EXPECT_EQ(m.contexts()[0].refs, 1);
    EXPECT_EQ(m.leaksDetected(), 0u);
    // Load it back: refcount 2 again.
    m.handleEvent(instEvent(evLoad, 0x50000000, 1, 0, 9, 1), ctx);
    EXPECT_EQ(m.contexts()[0].refs, 2);
    EXPECT_EQ(ctx.regMd.read(0, 9), MemLeak::mdPointer);
    // Kill both references: leak.
    m.handleEvent(instEvent(evAluRI, 0, 6, 0, 9, 1), ctx);
    UnfilteredEvent st = instEvent(evStore, 0x50000000, 6, 0, 0, 1);
    m.handleEvent(st, ctx);
    EXPECT_EQ(m.leaksDetected(), 1u);
}

TEST(MemLeakTest, StackFrameDeathDropsReferences)
{
    MemLeak m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(highLevel(EventKind::Malloc, 0x40000000, 64, 2), ctx);
    // Spill the pointer into a local, then clobber the register.
    m.handleEvent(instEvent(evStore, 0xE0000010, 2, 0, 0, 1), ctx);
    m.handleEvent(instEvent(evAluRR, 0, 6, 7, 2, 2), ctx);
    EXPECT_EQ(m.leaksDetected(), 0u) << "local still references block";
    // Frame dies: the last reference goes with it.
    UnfilteredEvent ret;
    ret.ev.kind = EventKind::StackReturn;
    ret.ev.appAddr = 0xE0000000;
    ret.ev.len = 64;
    m.handleEvent(ret, ctx);
    EXPECT_EQ(m.leaksDetected(), 1u);
}

TEST(MemLeakTest, PointerArithmeticKeepsReference)
{
    MemLeak m;
    MonitorContext ctx(m.shadowDefault());
    m.handleEvent(highLevel(EventKind::Malloc, 0x40000000, 64, 2), ctx);
    // p' = p + offset into r3: both reference the block.
    m.handleEvent(instEvent(evAluRR, 0, 2, 6, 3, 2), ctx);
    EXPECT_EQ(m.contexts()[0].refs, 2);
    EXPECT_EQ(ctx.regMd.read(0, 3), MemLeak::mdPointer);
    // Multiply destroys pointerness.
    m.handleEvent(instEvent(evMul, 0, 3, 6, 3, 2), ctx);
    EXPECT_EQ(m.contexts()[0].refs, 1);
    EXPECT_EQ(ctx.regMd.read(0, 3), MemLeak::mdNonPointer);
}

// -------------------------------------------------------------- Atom

TEST(AtomCheckTest, UnserializablePatterns)
{
    EXPECT_TRUE(AtomCheck::unserializable(AtomCheck::accRead,
                                          AtomCheck::accWrite,
                                          AtomCheck::accRead));
    EXPECT_TRUE(AtomCheck::unserializable(AtomCheck::accWrite,
                                          AtomCheck::accWrite,
                                          AtomCheck::accRead));
    EXPECT_TRUE(AtomCheck::unserializable(AtomCheck::accWrite,
                                          AtomCheck::accRead,
                                          AtomCheck::accWrite));
    EXPECT_TRUE(AtomCheck::unserializable(AtomCheck::accRead,
                                          AtomCheck::accWrite,
                                          AtomCheck::accWrite));
    // Serializable ones.
    EXPECT_FALSE(AtomCheck::unserializable(AtomCheck::accRead,
                                           AtomCheck::accRead,
                                           AtomCheck::accRead));
    EXPECT_FALSE(AtomCheck::unserializable(AtomCheck::accWrite,
                                           AtomCheck::accRead,
                                           AtomCheck::accRead));
}

TEST(AtomCheckTest, DetectsReadWriteReadInterleaving)
{
    AtomCheck m;
    MonitorContext ctx(m.shadowDefault());
    Addr a = 0x40000100;
    m.handleEvent(instEvent(evLoad, a, 1, 0, 5, 1, 0), ctx);  // T0 read
    m.handleEvent(instEvent(evStore, a, 4, 0, 0, 1, 1), ctx); // T1 write
    m.handleEvent(instEvent(evLoad, a, 1, 0, 5, 1, 0), ctx);  // T0 read
    ASSERT_EQ(m.reports().size(), 1u);
    EXPECT_EQ(m.reports()[0].kind, "atomicity-violation");
}

TEST(AtomCheckTest, SameThreadSequenceIsSilent)
{
    AtomCheck m;
    MonitorContext ctx(m.shadowDefault());
    Addr a = 0x40000200;
    for (int i = 0; i < 10; ++i) {
        m.handleEvent(instEvent(i % 2 ? evStore : evLoad, a, 1, 0, 5, 1,
                                0), ctx);
    }
    EXPECT_TRUE(m.reports().empty());
    EXPECT_EQ(m.sameThreadAccesses, 9u);
}

TEST(AtomCheckTest, ReadReadInterleavingIsSerializable)
{
    AtomCheck m;
    MonitorContext ctx(m.shadowDefault());
    Addr a = 0x40000300;
    m.handleEvent(instEvent(evLoad, a, 1, 0, 5, 1, 0), ctx);
    m.handleEvent(instEvent(evLoad, a, 1, 0, 5, 1, 1), ctx);
    m.handleEvent(instEvent(evLoad, a, 1, 0, 5, 1, 0), ctx);
    EXPECT_TRUE(m.reports().empty());
}

TEST(AtomCheckTest, MetadataTracksLastAccessor)
{
    AtomCheck m;
    MonitorContext ctx(m.shadowDefault());
    Addr a = 0x40000400;
    m.handleEvent(instEvent(evStore, a, 4, 0, 0, 1, 2), ctx);
    EXPECT_EQ(ctx.shadow.readApp(a),
              AtomCheck::mdAccessed | 2);
}

TEST(AtomCheckTest, ThreadSwitchUpdatesInvariantRegister)
{
    AtomCheck m;
    InvRegFile inv;
    m.onThreadSwitch(3, &inv);
    EXPECT_EQ(inv.read(0), AtomCheck::mdAccessed | 3);
    m.onThreadSwitch(0, nullptr); // must not crash
}

// ------------------------------------------------- handler sequences

class HandlerSeqSweep
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(HandlerSeqSweep, SequencesAreNonEmptyAndBounded)
{
    auto [name, hwChecked] = GetParam();
    auto m = makeMonitor(name);
    MonitorContext ctx(m->shadowDefault());
    std::vector<Instruction> seq;

    for (std::uint8_t id :
         {evLoad, evStore, evAluRR, evAluRI, evMul}) {
        if (name == "AddrCheck" && id > evStore)
            continue;
        if (name == "AtomCheck" && id > evStore)
            continue;
        UnfilteredEvent u = instEvent(id, 0x40000000, 1, 2, 5, 2);
        u.hwChecked = hwChecked;
        seq.clear();
        m->buildHandlerSeq(u, ctx, seq);
        EXPECT_GE(seq.size(), 4u) << name << " id " << int(id);
        EXPECT_LE(seq.size(), 64u) << name << " id " << int(id);
    }

    // Bulk handlers scale with region size.
    std::vector<Instruction> small, large;
    m->buildHandlerSeq(highLevel(EventKind::StackCall, 0xE0000000, 64),
                       ctx, small);
    m->buildHandlerSeq(highLevel(EventKind::StackCall, 0xE0000000, 4096),
                       ctx, large);
    EXPECT_GT(large.size(), small.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllMonitors, HandlerSeqSweep,
    ::testing::Combine(::testing::Values("AddrCheck", "MemCheck",
                                         "TaintCheck", "MemLeak",
                                         "AtomCheck"),
                       ::testing::Bool()));

/** Property: filtered events never change critical metadata. */
class FilterSoundness : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FilterSoundness, FilteredImpliesNoMetadataChange)
{
    // For every monitor: if FADE's filter logic declares an event
    // filtered, applying the software handler must leave the critical
    // metadata unchanged (the paper's core soundness argument).
    auto m = makeMonitor(GetParam());
    MonitorContext ctx(m->shadowDefault());
    ctx.regMd.fill(m->regMdInit());
    EventTable table;
    InvRegFile inv;
    m->programFade(table, inv);
    FilterLogic logic(inv);
    Rng rng(99);

    for (int iter = 0; iter < 2000; ++iter) {
        std::uint8_t id = std::uint8_t(rng.range(5)); // load..mul
        if (!table.validAt(id))
            continue;
        UnfilteredEvent u = instEvent(
            id, 0x40000000 + rng.range(64) * 4,
            RegIndex(1 + rng.range(27)), RegIndex(1 + rng.range(27)),
            RegIndex(1 + rng.range(27)), 2, 0);
        // Randomize metadata state.
        if (rng.chance(0.3))
            ctx.shadow.writeApp(u.ev.appAddr, std::uint8_t(rng.range(2)));
        if (rng.chance(0.3))
            ctx.regMd.write(0, u.ev.src1, std::uint8_t(rng.range(2)));

        const EventTableEntry &e = table.lookup(id);
        OperandMd md;
        auto readOp = [&](const OperandRule &r, RegIndex reg) {
            if (!r.valid)
                return std::uint8_t(0);
            return r.mem ? ctx.shadow.readApp(u.ev.appAddr)
                         : ctx.regMd.read(0, reg);
        };
        md.s1 = readOp(e.s1, u.ev.src1);
        md.s2 = readOp(e.s2, u.ev.src2);
        md.d = readOp(e.d, u.ev.dst);

        FilterOutcome out = logic.evaluate(table, id, md);
        if (!out.filtered)
            continue;

        std::uint8_t memBefore = ctx.shadow.readApp(u.ev.appAddr);
        std::uint8_t dstBefore = ctx.regMd.read(0, u.ev.dst);
        m->handleEvent(u, ctx);
        EXPECT_EQ(ctx.shadow.readApp(u.ev.appAddr), memBefore)
            << GetParam() << " id " << int(id);
        EXPECT_EQ(ctx.regMd.read(0, u.ev.dst), dstBefore)
            << GetParam() << " id " << int(id);
    }
}

INSTANTIATE_TEST_SUITE_P(Monitors, FilterSoundness,
                         ::testing::Values("AddrCheck", "MemCheck",
                                           "TaintCheck", "MemLeak"));

// --------------------------------------------- handler classification

/**
 * Handler classes (Fig. 4(a)'s breakdown) pinned per lifeguard. No
 * fingerprint includes HandlerClass or instrByClass, so this is their
 * check. Each lifeguard runs unaccelerated and accelerated on both
 * engines over a short window from a cold start; the thread monitors
 * run on a threaded process, whose sync plan a warmup would consume.
 * The window's handler count, handler instructions and instructions
 * by class must equal constants captured before Monitor classified
 * stack-update and high-level handlers itself.
 */
TEST(HandlerClassification, PinnedPerLifeguard)
{
    constexpr std::uint64_t kWindow = 20000;
    struct Row
    {
        const char *monitor;
        bool accelerated;
        Engine engine;
        std::uint64_t handlers;
        std::uint64_t instructions;
        /** Indexed by HandlerClass: CheckOnly, Update, StackUpdate,
         *  HighLevel. */
        std::array<std::uint64_t, 4> byClass;
    };
    const Engine P = Engine::PerCycle, R = Engine::RunGrain;
    const Row rows[] = {
        {"AddrCheck", false, P, 4838, 40183, {31805, 0, 7076, 1302}},
        {"AddrCheck", false, R, 4866, 39270, {30828, 0, 7140, 1302}},
        {"AddrCheck", true, P, 58, 1302, {0, 0, 0, 1302}},
        {"AddrCheck", true, R, 58, 1302, {0, 0, 0, 1302}},
        {"MemCheck", false, P, 10461, 117902, {1376, 108130, 7094, 1302}},
        {"MemCheck", false, R, 10498, 118316, {1392, 108482, 7140, 1302}},
        {"MemCheck", true, P, 1717, 14574, {0, 13272, 0, 1302}},
        {"MemCheck", true, R, 1719, 14590, {0, 13288, 0, 1302}},
        {"TaintCheck", false, P, 10416, 118158, {1892, 108884, 7094, 288}},
        {"TaintCheck", false, R, 10453, 118586, {1914, 109244, 7140, 288}},
        {"TaintCheck", true, P, 13, 288, {0, 0, 0, 288}},
        {"TaintCheck", true, R, 13, 288, {0, 0, 0, 288}},
        {"MemLeak", false, P, 10289, 234753, {0, 226093, 7094, 1566}},
        {"MemLeak", false, R, 10324, 235532, {0, 226826, 7140, 1566}},
        {"MemLeak", true, P, 3264, 62480, {0, 60914, 0, 1566}},
        {"MemLeak", true, R, 3324, 63620, {0, 62054, 0, 1566}},
        {"AtomCheck", false, P, 4253, 153947, {97411, 53072, 3464, 0}},
        {"AtomCheck", false, R, 4287, 155043, {97650, 53909, 3484, 0}},
        {"AtomCheck", true, P, 4028, 57537, {43719, 13818, 0, 0}},
        {"AtomCheck", true, R, 4064, 58087, {44175, 13912, 0, 0}},
        {"RaceCheck", false, P, 304, 4146, {0, 1460, 0, 2686}},
        {"RaceCheck", false, R, 304, 4146, {0, 1460, 0, 2686}},
        {"RaceCheck", true, P, 304, 4146, {0, 1460, 0, 2686}},
        {"RaceCheck", true, R, 304, 4146, {0, 1460, 0, 2686}},
        {"SharedTaint", false, P, 306, 2912, {0, 1314, 0, 1598}},
        {"SharedTaint", false, R, 306, 2912, {0, 1314, 0, 1598}},
        {"SharedTaint", true, P, 306, 2912, {0, 1314, 0, 1598}},
        {"SharedTaint", true, R, 306, 2912, {0, 1314, 0, 1598}},
    };
    for (const Row &r : rows) {
        const std::string mon = r.monitor;
        SCOPED_TRACE(mon + (r.accelerated ? " accelerated " : " ") +
                     engineName(r.engine));
        BenchProfile p = specProfile("gcc");
        if (mon == "AtomCheck")
            p = parallelProfile("ocean");
        if (mon == "RaceCheck" || mon == "SharedTaint") {
            p = threadedProfile("ocean");
            p.injectRaces = 2;
            p.injectTaintFlows = 2;
        }
        MultiCoreConfig cfg;
        cfg.monitor = mon;
        cfg.engine = r.engine;
        cfg.shard.accelerated = r.accelerated;
        cfg.workloads = {p};
        MultiCoreSystem sys(cfg);
        sys.run(kWindow);
        const MonitorProcessStats &s = sys.shard(0).monitorProcess()->stats();
        EXPECT_EQ(s.handlers, r.handlers);
        EXPECT_EQ(s.instructions, r.instructions);
        EXPECT_EQ(s.instrByClass, r.byClass);
    }
}

} // namespace fade
