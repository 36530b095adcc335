/** @file Integration tests for the FADE accelerator pipeline. */

#include <gtest/gtest.h>

#include "core/fade.hh"
#include "monitor/factory.hh"

namespace fade
{

namespace
{

/** Harness owning a FADE instance with queues and context. */
struct FadeHarness
{
    MonitorContext ctx;
    Cache l2;
    Fade fade;
    BoundedQueue<MonEvent> eq;
    BoundedQueue<UnfilteredEvent> ueq;
    Cycle now = 0;
    std::uint64_t seq = 0;

    explicit FadeHarness(FadeParams p = {}, std::uint8_t shadowDefault = 0)
        : ctx(shadowDefault),
          l2(l2Params(), nullptr, dramLatency),
          fade(p, ctx, &l2),
          eq(32),
          ueq(16)
    {
        fade.bind(&eq, &ueq);
    }

    void
    programMonitor(const std::string &name)
    {
        auto m = makeMonitor(name);
        m->programFade(fade.eventTable(), fade.invRf());
        ctx.regMd.fill(m->regMdInit());
    }

    MonEvent
    loadEvent(Addr addr, RegIndex dst = 5)
    {
        MonEvent ev;
        ev.kind = EventKind::Inst;
        ev.eventId = evLoad;
        ev.appAddr = addr;
        ev.src1 = 1;
        ev.numSrc = 1;
        ev.dst = dst;
        ev.hasDst = true;
        ev.seq = seq++;
        return ev;
    }

    MonEvent
    storeEvent(Addr addr, RegIndex src = 4)
    {
        MonEvent ev;
        ev.kind = EventKind::Inst;
        ev.eventId = evStore;
        ev.appAddr = addr;
        ev.src1 = src;
        ev.numSrc = 1;
        ev.seq = seq++;
        return ev;
    }

    MonEvent
    stackEvent(bool call, Addr base, std::uint32_t bytes)
    {
        MonEvent ev;
        ev.kind = call ? EventKind::StackCall : EventKind::StackReturn;
        ev.appAddr = base;
        ev.len = bytes;
        ev.seq = seq++;
        return ev;
    }

    /** Tick until the pipe drains or the limit is hit. */
    void
    run(unsigned maxCycles = 1000)
    {
        for (unsigned i = 0; i < maxCycles; ++i) {
            fade.tick(now++);
            if (eq.empty() && !fade.busy())
                break;
        }
    }

    /** Pop and complete one software handler (monitor side). */
    bool
    completeOne()
    {
        if (ueq.empty())
            return false;
        UnfilteredEvent u = ueq.pop();
        fade.handlerDone(u.ev.seq);
        return true;
    }
};

} // namespace

TEST(FadePipeline, FiltersCleanLoad)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    h.eq.push(h.loadEvent(0x1000));
    h.run();
    EXPECT_EQ(h.fade.stats().instEvents, 1u);
    EXPECT_EQ(h.fade.stats().filtered, 1u);
    EXPECT_TRUE(h.ueq.empty());
}

TEST(FadePipeline, UnfilteredGoesToSoftware)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    h.ctx.shadow.writeApp(0x1000, 1); // pointer in memory
    h.eq.push(h.loadEvent(0x1000));
    h.run();
    EXPECT_EQ(h.fade.stats().unfiltered, 1u);
    ASSERT_EQ(h.ueq.size(), 1u);
    EXPECT_EQ(h.fade.outstandingHandlers(), 1u);
    h.completeOne();
    EXPECT_EQ(h.fade.outstandingHandlers(), 0u);
}

TEST(FadePipeline, NonBlockingUpdatesRegisterMetadata)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    h.ctx.shadow.writeApp(0x1000, 1);
    h.eq.push(h.loadEvent(0x1000, 7));
    h.run();
    // The MD update logic propagated the pointer bit to r7 without
    // waiting for the software handler.
    EXPECT_EQ(h.ctx.regMd.read(0, 7), 1);
    EXPECT_EQ(h.fade.outstandingHandlers(), 1u);
}

TEST(FadePipeline, NonBlockingMemoryUpdateViaFsq)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    h.ctx.regMd.write(0, 4, 1); // r4 holds a pointer
    h.eq.push(h.storeEvent(0x2000, 4));
    h.eq.push(h.loadEvent(0x2000, 9)); // dependent load
    h.run();
    // Store unfiltered; its critical update sits in the FSQ. The
    // dependent load reads the forwarded value, is unfiltered (pointer
    // load), and propagates the pointer bit to r9.
    EXPECT_EQ(h.fade.stats().unfiltered, 2u);
    EXPECT_EQ(h.ctx.regMd.read(0, 9), 1);
    // Only the store's update targets memory (the load's destination
    // is a register, written directly in the MD RF).
    EXPECT_EQ(h.fade.fsq().size(), 1u);
    // Handlers complete in order: FSQ entries are released.
    h.completeOne();
    h.completeOne();
    EXPECT_TRUE(h.fade.fsq().empty());
}

TEST(FadePipeline, BlockingModeStallsUntilHandlerDone)
{
    FadeParams p;
    p.nonBlocking = false;
    FadeHarness h(p);
    h.programMonitor("MemLeak");
    h.ctx.shadow.writeApp(0x1000, 1);
    h.eq.push(h.loadEvent(0x1000));
    h.eq.push(h.loadEvent(0x3000)); // clean: would filter
    for (int i = 0; i < 50; ++i)
        h.fade.tick(h.now++);
    // The clean load is stuck behind the blocked pipe.
    EXPECT_EQ(h.fade.stats().filtered, 0u);
    EXPECT_GT(h.fade.stats().stallBlocking, 0u);
    ASSERT_EQ(h.ueq.size(), 1u);
    h.completeOne();
    h.run();
    EXPECT_EQ(h.fade.stats().filtered, 1u);
}

TEST(FadePipeline, ThroughputOneEventPerCycle)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    // Feed 200 clean events, one per cycle.
    unsigned fed = 0;
    for (unsigned c = 0; c < 300; ++c) {
        if (fed < 200 && !h.eq.full()) {
            h.eq.push(h.loadEvent(0x1000 + 4 * (fed % 64)));
            ++fed;
        }
        h.fade.tick(h.now++);
    }
    EXPECT_EQ(h.fade.stats().filtered, 200u);
    // 200 events retire within 300 cycles: sustained ~1/cycle after
    // the pipeline fill.
}

TEST(FadePipeline, StackUpdateDrainsThenRunsSuu)
{
    FadeHarness h;
    h.programMonitor("MemCheck"); // INV[6] = uninit (0x01) on call
    h.eq.push(h.stackEvent(true, 0xE0001000, 64));
    h.run();
    EXPECT_EQ(h.fade.stats().stackEvents, 1u);
    EXPECT_EQ(h.fade.suu().updates(), 1u);
    // 64 bytes = 16 metadata bytes set to the call value.
    for (Addr a = 0xE0001000; a < 0xE0001040; a += 4)
        ASSERT_EQ(h.ctx.shadow.readApp(a), 0x01);
    EXPECT_EQ(h.ctx.shadow.readApp(0xE0001040), 0x00);
}

TEST(FadePipeline, StackUpdateWaitsForOutstandingHandlers)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    h.ctx.shadow.writeApp(0x1000, 1);
    h.eq.push(h.loadEvent(0x1000));            // unfiltered
    h.eq.push(h.stackEvent(true, 0xE0000000, 32));
    for (int i = 0; i < 100; ++i)
        h.fade.tick(h.now++);
    // The SUU must not run while the handler is outstanding.
    EXPECT_EQ(h.fade.suu().updates(), 0u);
    EXPECT_GT(h.fade.stats().stallDrain, 0u);
    h.completeOne();
    h.run();
    EXPECT_EQ(h.fade.suu().updates(), 1u);
}

TEST(FadePipeline, HighLevelEventBypassesFiltering)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    MonEvent ev;
    ev.kind = EventKind::Malloc;
    ev.appAddr = 0x40000000;
    ev.len = 256;
    ev.dst = 3;
    ev.hasDst = true;
    ev.seq = h.seq++;
    h.eq.push(ev);
    h.run();
    EXPECT_EQ(h.fade.stats().highLevelEvents, 1u);
    ASSERT_EQ(h.ueq.size(), 1u);
    EXPECT_FALSE(h.ueq.front().hwChecked);
}

TEST(FadePipeline, OrderPreservedAcrossHighLevel)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    h.ctx.shadow.writeApp(0x1000, 1);
    h.eq.push(h.loadEvent(0x1000)); // unfiltered, seq 0
    MonEvent m;
    m.kind = EventKind::Free;
    m.appAddr = 0x5000;
    m.seq = h.seq++;
    h.eq.push(m);
    h.eq.push(h.loadEvent(0x1000)); // seq 2
    // Filtering holds until each high-level handler completes, so
    // drain the queue as software would, recording arrival order.
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 200 && order.size() < 3; ++i) {
        h.fade.tick(h.now++);
        if (!h.ueq.empty()) {
            UnfilteredEvent u = h.ueq.pop();
            order.push_back(u.ev.seq);
            h.fade.handlerDone(u.ev.seq);
        }
    }
    ASSERT_EQ(order.size(), 3u);
    EXPECT_LT(order[0], order[1]);
    EXPECT_LT(order[1], order[2]);
}

TEST(FadePipeline, UeqBackpressureStallsFiltering)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    // 20 unfilterable events exceed the 16-entry UEQ.
    for (int i = 0; i < 20; ++i) {
        h.ctx.shadow.writeApp(0x1000 + 4 * i, 1);
        h.eq.push(h.loadEvent(0x1000 + 4 * i));
    }
    for (int i = 0; i < 200; ++i)
        h.fade.tick(h.now++);
    EXPECT_EQ(h.ueq.size(), 16u);
    EXPECT_GT(h.fade.stats().stallUeqFull, 0u);
    // Draining the queue lets the rest through.
    while (h.completeOne()) {}
    h.run();
    while (h.completeOne()) {}
    h.run();
    EXPECT_EQ(h.fade.stats().unfiltered, 20u);
}

TEST(FadePipeline, PartialFilteringDispatchesSelectedHandler)
{
    FadeHarness h;
    h.programMonitor("AtomCheck");
    h.fade.invRf().write(0, 0x80); // current thread 0
    h.ctx.shadow.writeApp(0x1000, 0x80); // last accessed by thread 0
    h.eq.push(h.loadEvent(0x1000));
    h.run();
    ASSERT_EQ(h.ueq.size(), 1u);
    EXPECT_TRUE(h.ueq.front().checkPassed);
    EXPECT_EQ(h.fade.stats().partialPass, 1u);
    h.completeOne();

    h.ctx.shadow.writeApp(0x2000, 0x81); // last accessed by thread 1
    h.eq.push(h.loadEvent(0x2000));
    h.run();
    ASSERT_EQ(h.ueq.size(), 1u);
    EXPECT_FALSE(h.ueq.front().checkPassed);
    EXPECT_EQ(h.fade.stats().partialFail, 1u);
}

TEST(FadePipeline, FilteringRatioAccounting)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    for (int i = 0; i < 8; ++i)
        h.eq.push(h.loadEvent(0x1000));
    h.ctx.shadow.writeApp(0x2000, 1);
    h.eq.push(h.loadEvent(0x2000));
    h.run();
    h.completeOne();
    const FadeStats &s = h.fade.stats();
    EXPECT_EQ(s.instEvents, 9u);
    EXPECT_EQ(s.filtered, 8u);
    EXPECT_EQ(s.unfiltered, 1u);
    EXPECT_NEAR(s.filteringRatio(), 8.0 / 9.0, 1e-9);
}

TEST(FadePipeline, UnfilteredDistanceHistogram)
{
    FadeHarness h;
    h.programMonitor("MemLeak");
    h.ctx.shadow.writeApp(0x2000, 1);
    // unfiltered, 3 filtered, unfiltered
    h.eq.push(h.loadEvent(0x2000, 5));
    h.run();
    h.completeOne();
    h.ctx.regMd.write(0, 5, 0); // clear propagated pointer bit
    for (int i = 0; i < 3; ++i) {
        h.eq.push(h.loadEvent(0x1000));
        h.run();
    }
    h.ctx.shadow.writeApp(0x2000, 1);
    h.eq.push(h.loadEvent(0x2000, 6));
    h.run();
    h.completeOne();
    h.fade.finalizeBursts();
    EXPECT_EQ(h.fade.stats().unfDistance.total(), 2u);
    EXPECT_DOUBLE_EQ(h.fade.stats().unfDistance.cdfAt(4), 1.0);
    // Two software-bound events within distance 16: one burst of 2.
    EXPECT_EQ(h.fade.stats().unfBurst.total(), 1u);
}

TEST(FadePipeline, InvalidEventIdIsFatal)
{
    FadeHarness h;
    // Nothing programmed: a monitored event with no entry is a
    // configuration error.
    MonEvent ev;
    ev.kind = EventKind::Inst;
    ev.eventId = 13;
    h.eq.push(ev);
    EXPECT_EXIT(
        {
            for (int i = 0; i < 10; ++i)
                h.fade.tick(h.now++);
        },
        ::testing::ExitedWithCode(1), "no event table entry");
}

TEST(Suu, BulkWriteBlocks)
{
    MonitorContext ctx(0);
    Cache l2(l2Params(), nullptr, dramLatency);
    MdCache mdc(MdCacheParams{}, &l2);
    InvRegFile inv;
    inv.write(callInvReg, 0xAB);
    inv.write(retInvReg, 0xCD);
    StackUpdateUnit suu(mdc, ctx.shadow, inv);

    suu.start(0xE0000000, 1024, true); // 256 md bytes = 4 blocks
    unsigned ticks = 0;
    while (suu.busy() && ticks < 1000) {
        suu.tick();
        ++ticks;
    }
    EXPECT_EQ(suu.blockWrites(), 4u);
    for (Addr a = 0xE0000000; a < 0xE0000400; a += 4)
        ASSERT_EQ(ctx.shadow.readApp(a), 0xAB);

    suu.start(0xE0000000, 1024, false);
    while (suu.busy())
        suu.tick();
    EXPECT_EQ(ctx.shadow.readApp(0xE0000000), 0xCD);
}

TEST(Suu, ZeroLengthFrameIsNoop)
{
    MonitorContext ctx(0);
    Cache l2(l2Params(), nullptr, dramLatency);
    MdCache mdc(MdCacheParams{}, &l2);
    InvRegFile inv;
    StackUpdateUnit suu(mdc, ctx.shadow, inv);
    suu.start(0xE0000000, 0, true);
    EXPECT_FALSE(suu.busy());
}

} // namespace fade
