/** @file Tests for the core timing models and the workload generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "cpu/core.hh"
#include "sim/random.hh"
#include "testutil.hh"
#include "trace/generator.hh"

namespace fade
{

namespace
{

/** Fixed instruction list source. */
class ListSource : public InstSource
{
  public:
    explicit ListSource(std::vector<Instruction> v) : v_(std::move(v)) {}

    std::size_t
    stageRun(std::size_t n) override
    {
        return std::min(n, v_.size() - i_);
    }

    InstSpan
    fetchSpan(std::size_t max) override
    {
        InstSpan s{v_.data() + i_, stageRun(max)};
        i_ += s.count;
        return s;
    }

  private:
    std::vector<Instruction> v_;
    std::size_t i_ = 0;
};

/** Counting sink with optional commit throttle. */
class CountSink : public CommitSink
{
  public:
    bool
    commit(const Instruction &) override
    {
        if (blocked)
            return false;
        ++committed;
        return true;
    }

    bool blocked = false;
    std::uint64_t committed = 0;
};

Instruction
alu(RegIndex s1, RegIndex s2, RegIndex d)
{
    Instruction i;
    i.cls = InstClass::IntAlu;
    i.numSrc = 2;
    i.src1 = s1;
    i.src2 = s2;
    i.dst = d;
    i.hasDst = true;
    return i;
}

Instruction
load(Addr a, RegIndex d)
{
    Instruction i;
    i.cls = InstClass::Load;
    i.memAddr = a;
    i.numSrc = 1;
    i.src1 = 1;
    i.dst = d;
    i.hasDst = true;
    return i;
}

std::uint64_t
runToCompletion(Core &core, CountSink &sink, std::uint64_t expect,
                std::uint64_t limit = 100000)
{
    Cycle now = 0;
    while (sink.committed < expect && now < limit)
        core.tick(now++);
    return now;
}

/** What a scripted source or sink saw, in call order. */
struct SlotCall
{
    enum Kind : unsigned { Commit, Refuse, Dispatch, EmptyFetch };
    Cycle cycle;
    unsigned tid;
    Kind kind;
};

/**
 * Source whose instruction k becomes available at cycle release[k]
 * (runs separated by gaps), served one at a time as the core fetches;
 * logs every fetch, served or empty.
 */
class ScriptSource : public InstSource
{
  public:
    ScriptSource(std::vector<Instruction> v, std::vector<Cycle> release,
                 const Cycle &now, unsigned tid,
                 std::vector<SlotCall> &log)
        : v_(std::move(v)), release_(std::move(release)), now_(now),
          tid_(tid), log_(log)
    {}

    std::size_t
    stageRun(std::size_t n) override
    {
        return n > 0 && i_ < v_.size() && release_[i_] <= now_ ? 1 : 0;
    }

    InstSpan
    fetchSpan(std::size_t max) override
    {
        InstSpan s{v_.data() + i_, stageRun(max)};
        i_ += s.count;
        log_.push_back(
            {now_, tid_, s.count ? SlotCall::Dispatch : SlotCall::EmptyFetch});
        return s;
    }

  private:
    std::vector<Instruction> v_;
    std::vector<Cycle> release_;
    std::size_t i_ = 0;
    const Cycle &now_;
    unsigned tid_;
    std::vector<SlotCall> &log_;
};

/** Sink that refuses on a fixed cycle schedule; logs every call. */
class ScriptSink : public CommitSink
{
  public:
    ScriptSink(const Cycle &now, unsigned tid, std::vector<SlotCall> &log)
        : now_(now), tid_(tid), log_(log)
    {}

    bool
    commit(const Instruction &) override
    {
        bool refuse = (now_ + 3 * tid_) % 11 < 2;
        log_.push_back(
            {now_, tid_, refuse ? SlotCall::Refuse : SlotCall::Commit});
        committed += !refuse;
        return !refuse;
    }

    std::uint64_t committed = 0;

  private:
    const Cycle &now_;
    unsigned tid_;
    std::vector<SlotCall> &log_;
};

/** Seeded instruction mix for one thread: dependent ALU chains,
 *  multiplies, loads and stores, and mispredicted branches, released
 *  in runs of 1..40 instructions separated by gaps of 0..60 cycles. */
void
scriptThread(std::uint64_t seed, std::size_t n,
             std::vector<Instruction> &insts, std::vector<Cycle> &release)
{
    Rng rng(seed);
    Cycle at = 0;
    std::size_t runLeft = 0;
    for (std::size_t k = 0; k < n; ++k) {
        if (runLeft == 0) {
            runLeft = 1 + rng.range(40);
            at += rng.range(61);
        }
        --runLeft;
        release.push_back(at);

        Instruction i;
        i.numSrc = std::uint8_t(rng.range(3));
        i.src1 = RegIndex(rng.range(numArchRegs));
        i.src2 = RegIndex(rng.range(numArchRegs));
        i.dst = RegIndex(rng.range(numArchRegs));
        i.hasDst = true;
        switch (rng.range(8)) {
          case 0:
            i.cls = InstClass::Load;
            i.memAddr = Addr(rng.range(1 << 16)) * wordSize;
            break;
          case 1:
            i.cls = InstClass::Store;
            i.memAddr = Addr(rng.range(1 << 16)) * wordSize;
            i.hasDst = false;
            break;
          case 2:
            i.cls = InstClass::Branch;
            i.mispredict = rng.range(3) == 0;
            i.hasDst = false;
            break;
          case 3:
            i.cls = InstClass::IntMul;
            break;
          default:
            i.cls = InstClass::IntAlu;
            break;
        }
        insts.push_back(i);
    }
}

} // namespace

TEST(CoreModel, IndependentAluReachesFullWidth)
{
    std::vector<Instruction> insts;
    for (int i = 0; i < 4000; ++i)
        insts.push_back(alu(RegIndex(1 + i % 8), RegIndex(9 + i % 8),
                            RegIndex(17 + i % 8)));
    // Writing a register before reading it would create dependences;
    // use disjoint src/dst banks above.
    ListSource src(insts);
    CountSink sink;
    Core core(aggressiveOooParams(), nullptr);
    core.addThread(&src, &sink);
    std::uint64_t cycles = runToCompletion(core, sink, 4000);
    double ipc = 4000.0 / cycles;
    EXPECT_GT(ipc, 3.5);
}

TEST(CoreModel, SerialChainLimitsIpc)
{
    std::vector<Instruction> insts;
    for (int i = 0; i < 2000; ++i)
        insts.push_back(alu(5, 5, 5)); // fully serial
    ListSource src(insts);
    CountSink sink;
    Core core(aggressiveOooParams(), nullptr);
    core.addThread(&src, &sink);
    std::uint64_t cycles = runToCompletion(core, sink, 2000);
    double ipc = 2000.0 / cycles;
    EXPECT_LT(ipc, 1.1) << "1-cycle serial chain caps IPC at 1";
    EXPECT_GT(ipc, 0.9);
}

TEST(CoreModel, InOrderSlowerThanOoOOnMisses)
{
    auto mkInsts = [] {
        std::vector<Instruction> v;
        for (int i = 0; i < 2000; ++i) {
            // Alternate a missing load with independent ALU work.
            if (i % 8 == 0) {
                Instruction ld = load(Addr(i) * 4096, RegIndex(1 + i % 4));
                ld.src1 = 14; // address register never written: the
                              // misses are independent of each other
                v.push_back(ld);
            }
            else
                v.push_back(alu(RegIndex(9 + i % 4), 14,
                                RegIndex(17 + i % 4)));
        }
        return v;
    };

    Cache l2a(l2Params(), nullptr, dramLatency);
    Cache l1a(l1Params("a"), &l2a);
    ListSource srcA(mkInsts());
    CountSink sinkA;
    Core ooo(aggressiveOooParams(), &l1a);
    ooo.addThread(&srcA, &sinkA);
    std::uint64_t oooCycles = runToCompletion(ooo, sinkA, 2000);

    Cache l2b(l2Params(), nullptr, dramLatency);
    Cache l1b(l1Params("b"), &l2b);
    ListSource srcB(mkInsts());
    CountSink sinkB;
    Core io(inOrderParams(), &l1b);
    io.addThread(&srcB, &sinkB);
    std::uint64_t ioCycles = runToCompletion(io, sinkB, 2000);

    EXPECT_GT(ioCycles, oooCycles * 2)
        << "OoO overlaps misses with independent work";
}

TEST(CoreModel, LeanBetweenInOrderAndAggressive)
{
    auto mkInsts = [] {
        std::vector<Instruction> v;
        for (int i = 0; i < 3000; ++i)
            v.push_back(alu(RegIndex(1 + i % 12), RegIndex(13 + i % 12),
                            RegIndex(1 + (i + 5) % 12)));
        return v;
    };
    std::array<std::uint64_t, 3> cycles{};
    std::array<CoreParams, 3> cores = {inOrderParams(), leanOooParams(),
                                       aggressiveOooParams()};
    for (int k = 0; k < 3; ++k) {
        ListSource src(mkInsts());
        CountSink sink;
        Core c(cores[k], nullptr);
        c.addThread(&src, &sink);
        cycles[k] = runToCompletion(c, sink, 3000);
    }
    EXPECT_GT(cycles[0], cycles[1]);
    EXPECT_GE(cycles[1], cycles[2]);
}

TEST(CoreModel, SinkBackpressureStallsRetirement)
{
    std::vector<Instruction> insts(100, alu(1, 2, 3));
    ListSource src(insts);
    CountSink sink;
    sink.blocked = true;
    Core core(aggressiveOooParams(), nullptr);
    core.addThread(&src, &sink);
    Cycle now = 0;
    for (; now < 200; ++now)
        core.tick(now);
    EXPECT_EQ(sink.committed, 0u);
    EXPECT_GT(core.threadStats(0).sinkStallCycles, 0u);
    sink.blocked = false;
    runToCompletion(core, sink, 100, 10000);
    EXPECT_EQ(sink.committed, 100u);
}

TEST(CoreModel, MispredictStallsFetch)
{
    std::vector<Instruction> clean, pred;
    for (int i = 0; i < 1000; ++i) {
        Instruction b;
        b.cls = InstClass::Branch;
        b.numSrc = 1;
        b.src1 = RegIndex(1 + i % 4);
        b.mispredict = false;
        clean.push_back(b);
        b.mispredict = (i % 10 == 0);
        pred.push_back(b);
    }
    ListSource srcA(clean), srcB(pred);
    CountSink sa, sb;
    Core ca(aggressiveOooParams(), nullptr);
    ca.addThread(&srcA, &sa);
    Core cb(aggressiveOooParams(), nullptr);
    cb.addThread(&srcB, &sb);
    std::uint64_t a = runToCompletion(ca, sa, 1000);
    std::uint64_t b = runToCompletion(cb, sb, 1000);
    EXPECT_GT(b, a + 500) << "10% mispredicts cost redirect bubbles";
}

TEST(CoreModel, SmtSharesBandwidthFairly)
{
    std::vector<Instruction> insts(4000, alu(1, 2, 3));
    // Give each thread a serial chain: with round-robin slot sharing
    // both threads should make similar progress.
    ListSource srcA(insts), srcB(insts);
    CountSink sa, sb;
    Core core(aggressiveOooParams(), nullptr);
    core.addThread(&srcA, &sa);
    core.addThread(&srcB, &sb);
    for (Cycle now = 0; now < 3000; ++now)
        core.tick(now);
    EXPECT_GT(sa.committed, 1000u);
    EXPECT_GT(sb.committed, 1000u);
    double ratio = double(sa.committed) / double(sb.committed);
    EXPECT_NEAR(ratio, 1.0, 0.2);
}

TEST(CoreModel, SmtSlotArbitrationPinned)
{
    // Pins the per-cycle slot arbitration of a two-thread core: every
    // commit (accepted or refused) and every fetch (served or empty),
    // in call order with its cycle and thread, plus the final
    // sink-stall and idle counters, hashed and compared with values
    // recorded before the arbitration loop was rewritten.
    struct Case
    {
        CoreParams params;
        std::uint64_t hash;
    };
    const Case cases[] = {{aggressiveOooParams(), 0xca9e6b8bbfaf2148ull},
                          {leanOooParams(), 0x91da868c0320853eull},
                          {inOrderParams(), 0x8cf91322a0ad51a9ull}};
    constexpr std::size_t kInsts = 1500;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.params.name);
        const unsigned width = c.params.width;
        Cycle now = 0;
        std::vector<SlotCall> log;
        std::vector<Instruction> ia, ib;
        std::vector<Cycle> ra, rb;
        scriptThread(width * 2 + 1, kInsts, ia, ra);
        scriptThread(width * 2 + 2, kInsts, ib, rb);
        ScriptSource srcA(ia, ra, now, 0, log), srcB(ib, rb, now, 1, log);
        ScriptSink sinkA(now, 0, log), sinkB(now, 1, log);
        Cache l2(l2Params(), nullptr, dramLatency);
        Cache l1(l1Params("arb"), &l2);
        Core core(c.params, &l1);
        core.addThread(&srcA, &sinkA);
        core.addThread(&srcB, &sinkB);
        for (; now < 200000; ++now) {
            if (sinkA.committed == kInsts && sinkB.committed == kInsts)
                break;
            core.tick(now);
        }
        ASSERT_EQ(sinkA.committed, kInsts);
        ASSERT_EQ(sinkB.committed, kInsts);

        std::uint64_t h = 0xcbf29ce484222325ull;
        auto mix = [&h](std::uint64_t v) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xFF;
                h *= 0x100000001b3ull;
            }
        };
        // Per cycle and thread: the most slots one thread took.
        std::array<std::array<unsigned, 2>, 2> mostSlots{};
        std::array<std::array<unsigned, 2>, 2> inCycle{};
        Cycle cur = ~Cycle(0);
        for (const SlotCall &s : log) {
            mix(s.cycle);
            mix(s.tid);
            mix(s.kind);
            if (s.cycle != cur) {
                inCycle = {};
                cur = s.cycle;
            }
            if (s.kind == SlotCall::Commit || s.kind == SlotCall::Dispatch) {
                unsigned k = s.kind == SlotCall::Commit ? 0 : 1;
                unsigned &n = inCycle[k][s.tid];
                mostSlots[k][s.tid] = std::max(mostSlots[k][s.tid], ++n);
            }
        }
        for (unsigned t = 0; t < 2; ++t) {
            SCOPED_TRACE(t);
            const ThreadStats &st = core.threadStats(t);
            EXPECT_GT(st.sinkStallCycles, 0u);
            EXPECT_GT(st.idleCycles, 0u);
            mix(st.sinkStallCycles);
            mix(st.idleCycles);
            EXPECT_EQ(mostSlots[0][t], width) << "commit";
            EXPECT_EQ(mostSlots[1][t], width) << "dispatch";
        }
        EXPECT_EQ(h, c.hash) << std::hex << "0x" << h;
    }
}

TEST(CoreModel, AtMostTwoThreads)
{
    Core core(aggressiveOooParams(), nullptr);
    ListSource s1({}), s2({}), s3({});
    core.addThread(&s1, nullptr);
    core.addThread(&s2, nullptr);
    EXPECT_EXIT(core.addThread(&s3, nullptr),
                ::testing::ExitedWithCode(1), "two hardware threads");
}

// ------------------------------------------------------------- trace

TEST(TraceGen, DeterministicStreams)
{
    BenchProfile p = specProfile("hmmer");
    TraceGenerator a(p), b(p);
    for (int i = 0; i < 20000; ++i) {
        Instruction x = test::fetchOne(a);
        Instruction y = test::fetchOne(b);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(int(x.cls), int(y.cls));
        ASSERT_EQ(x.memAddr, y.memAddr);
        ASSERT_EQ(x.dst, y.dst);
    }
}

TEST(TraceGen, AddressesStayInRegions)
{
    for (const auto &name : specBenchmarks()) {
        BenchProfile p = specProfile(name);
        TraceGenerator g(p);
        for (int i = 0; i < 30000; ++i) {
            Instruction inst = test::fetchOne(g);
            if (!inst.isMemRef())
                continue;
            bool ok = isStackAddr(inst.memAddr) ||
                      isHeapAddr(inst.memAddr) ||
                      isGlobalAddr(inst.memAddr);
            ASSERT_TRUE(ok) << name << " addr " << std::hex
                            << inst.memAddr;
        }
    }
}

TEST(TraceGen, CallReturnWellNested)
{
    BenchProfile p = specProfile("gcc");
    TraceGenerator g(p);
    std::vector<std::pair<Addr, std::uint32_t>> frames;
    for (int i = 0; i < 100000; ++i) {
        Instruction inst = test::fetchOne(g);
        if (inst.cls == InstClass::Call) {
            frames.push_back({inst.frameBase, inst.frameBytes});
        } else if (inst.cls == InstClass::Return) {
            // Returns may pop frames created before observation began;
            // nesting is only checkable for frames we saw pushed.
            if (!frames.empty()) {
                EXPECT_EQ(inst.frameBase, frames.back().first);
                EXPECT_EQ(inst.frameBytes, frames.back().second);
                frames.pop_back();
            }
        }
    }
}

TEST(TraceGen, MallocFreeBalance)
{
    BenchProfile p = specProfile("omnetpp");
    TraceGenerator g(p);
    std::set<Addr> live;
    int mallocs = 0, frees = 0;
    for (int i = 0; i < 200000; ++i) {
        Instruction inst = test::fetchOne(g);
        if (inst.cls != InstClass::HighLevel)
            continue;
        if (inst.hlKind == EventKind::Malloc) {
            ++mallocs;
            live.insert(inst.frameBase);
        } else if (inst.hlKind == EventKind::Free) {
            ++frees;
            ASSERT_TRUE(live.count(inst.frameBase))
                << "free of unknown block";
            live.erase(inst.frameBase);
        }
    }
    EXPECT_GT(mallocs, 20);
    EXPECT_GT(frees, 10);
    EXPECT_LE(frees, mallocs);
}

TEST(TraceGen, ThreadsTimeSliced)
{
    BenchProfile p = parallelProfile("water");
    TraceGenerator g(p);
    std::set<ThreadId> seen;
    ThreadId last = 255;
    int switches = 0;
    for (int i = 0; i < 100000; ++i) {
        Instruction inst = test::fetchOne(g);
        seen.insert(inst.tid);
        if (inst.tid != last && last != 255)
            ++switches;
        last = inst.tid;
    }
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_GE(switches, 8);
    EXPECT_LE(switches, 200) << "quantum-grained, not per-instruction";
}

TEST(TraceGen, MixRoughlyMatchesProfile)
{
    BenchProfile p = specProfile("hmmer");
    TraceGenerator g(p);
    std::uint64_t loads = 0, total = 200000;
    for (std::uint64_t i = 0; i < total; ++i)
        loads += test::fetchOne(g).cls == InstClass::Load;
    double f = double(loads) / total;
    // Blend of high/low phase load fractions plus pendings.
    EXPECT_GT(f, 0.15);
    EXPECT_LT(f, 0.35);
}

TEST(TraceGen, InjectedBugsCarryTruthBits)
{
    BenchProfile p = specProfile("astar");
    TraceGenerator g(p);
    for (int i = 0; i < 1000; ++i)
        test::fetchOne(g);
    g.injectBug(truthAccessUnallocated);
    g.injectBug(truthTaintedJump);
    g.injectBug(truthLeakDrop);
    std::uint8_t seen = 0;
    for (int i = 0; i < 2000; ++i)
        seen |= test::fetchOne(g).truth;
    EXPECT_TRUE(seen & truthAccessUnallocated);
    EXPECT_TRUE(seen & truthTaintedJump);
    EXPECT_TRUE(seen & truthLeakDrop);
}

TEST(TraceGen, PointerTruthIsSelfConsistent)
{
    // Ground truth invariant: a load from a word the generator knows
    // holds a pointer marks the destination register as a pointer.
    BenchProfile p = specProfile("gcc");
    TraceGenerator g(p);
    for (int i = 0; i < 100000; ++i) {
        Instruction inst = test::fetchOne(g);
        if (inst.cls == InstClass::Load && inst.hasDst) {
            bool slotPtr = g.wordIsPtr(inst.memAddr);
            ASSERT_EQ(g.regIsPtr(inst.tid, inst.dst), slotPtr);
        }
    }
}

TEST(TraceGen, LayoutCoversInitialState)
{
    BenchProfile p = specProfile("mcf");
    TraceGenerator g(p);
    const WorkloadLayout &l = g.layout();
    EXPECT_EQ(l.globalBase, globalBase);
    EXPECT_GT(l.globalLen, 0u);
    EXPECT_GE(l.stackBase, stackLimit);
    EXPECT_LT(l.stackBase, stackTop);
}

class TraceProfileSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceProfileSweep, StreamsAreWellFormed)
{
    bool parallel =
        std::find(parallelBenchmarks().begin(), parallelBenchmarks().end(),
                  GetParam()) != parallelBenchmarks().end();
    BenchProfile p =
        parallel ? parallelProfile(GetParam()) : specProfile(GetParam());
    TraceGenerator g(p);
    for (int i = 0; i < 30000; ++i) {
        Instruction inst = test::fetchOne(g);
        ASSERT_LT(int(inst.cls), int(InstClass::NumClasses));
        if (inst.hasDst) {
            ASSERT_LT(inst.dst, numArchRegs);
        }
        if (inst.numSrc >= 1) {
            ASSERT_LT(inst.src1, numArchRegs);
        }
        if (inst.isMemRef()) {
            ASSERT_EQ(inst.memAddr % 4, 0u) << "word aligned";
        }
        if (inst.isStackUpdate()) {
            ASSERT_GT(inst.frameBytes, 0u);
            ASSERT_TRUE(isStackAddr(inst.frameBase));
        }
        ASSERT_LT(inst.tid, p.numThreads);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, TraceProfileSweep,
    ::testing::Values("astar", "bzip", "gcc", "gobmk", "hmmer",
                      "libquantum", "mcf", "omnetpp", "water", "ocean",
                      "blackscholes", "streamcluster", "fluidanimate"));

} // namespace fade
