/**
 * @file
 * Tests for the functional-layer fast-path containers (sim/flatset.hh,
 * sim/wordset.hh, sim/ring.hh) and for the trace generator invariants
 * that ride on them: randomized differential equality against the
 * standard containers they replaced, erase-during-growth and
 * backward-shift edge cases, canonical word alignment of the
 * generator's ground-truth mirrors, and generator-oracle coherence
 * across every SPEC profile with bug injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/shadow.hh"
#include "sim/flatset.hh"
#include "sim/random.hh"
#include "sim/ring.hh"
#include "sim/wordset.hh"
#include "testutil.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace fade
{

namespace
{

std::vector<Addr>
sortedKeys(const std::unordered_set<Addr> &s)
{
    std::vector<Addr> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v;
}

std::vector<Addr>
sortedKeys(const WordSet &s)
{
    std::vector<Addr> v;
    s.forEach([&](Addr k) { v.push_back(k); });
    std::sort(v.begin(), v.end());
    return v;
}

} // namespace

TEST(AddrMap, RandomizedDifferentialAgainstStdMap)
{
    Rng rng(23);
    AddrMap<std::uint32_t> flat;
    std::unordered_map<Addr, std::uint32_t> ref;
    for (int k = 0; k < 100000; ++k) {
        Addr key = Addr(rng.range(2048));
        switch (rng.range(4)) {
          case 0: {
            std::uint32_t v = rng.next();
            flat[key] = v;
            ref[key] = v;
            break;
          }
          case 1:
            ASSERT_EQ(flat.erase(key), ref.erase(key) != 0);
            break;
          case 2:
            ASSERT_EQ(flat.contains(key), ref.count(key) != 0);
            break;
          default: {
            const std::uint32_t *p = flat.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(p != nullptr, it != ref.end());
            if (p) {
                ASSERT_EQ(*p, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
}

TEST(WordSet, RandomizedDifferentialWithRangeErase)
{
    Rng rng(31);
    WordSet ws;
    std::unordered_set<Addr> ref;
    for (int k = 0; k < 50000; ++k) {
        Addr key = heapBase + Addr(rng.range(1u << 15)) * wordSize;
        switch (rng.range(4)) {
          case 0:
            ws.insert(key);
            ref.insert(key);
            break;
          case 1:
            ws.erase(key);
            ref.erase(key);
            break;
          case 2: {
            // Ranges sized like frames and frees, including spans that
            // cross the 128KB page boundary.
            Addr lo = heapBase + Addr(rng.range(1u << 15)) * wordSize;
            std::uint64_t bytes = (1 + rng.range(40000)) * wordSize;
            ws.eraseRange(lo, lo + bytes);
            for (Addr a = lo; a < lo + bytes; a += wordSize)
                ref.erase(a);
            break;
          }
          default:
            ASSERT_EQ(ws.count(key), ref.count(key));
            break;
        }
        ASSERT_EQ(ws.size(), ref.size());
    }
    EXPECT_EQ(sortedKeys(ws), sortedKeys(ref));
}

TEST(WordSet, EraseRangeNeverMapsPages)
{
    WordSet ws;
    ws.eraseRange(heapBase, heapBase + (1 << 22));
    EXPECT_EQ(ws.size(), 0u);
    ws.insert(heapBase);
    EXPECT_TRUE(ws.contains(heapBase));
    ws.eraseRange(heapBase, heapBase + wordSize);
    EXPECT_FALSE(ws.contains(heapBase));
    EXPECT_TRUE(ws.empty());
}

TEST(RingDeque, MatchesStdDeque)
{
    Rng rng(47);
    RingDeque<int> ring(4);
    std::deque<int> ref;
    for (int k = 0; k < 100000; ++k) {
        switch (rng.range(3)) {
          case 0: {
            int v = int(rng.next());
            ring.push_back(v);
            ref.push_back(v);
            break;
          }
          case 1:
            if (!ref.empty()) {
                ASSERT_EQ(ring.front(), ref.front());
                ring.pop_front();
                ref.pop_front();
            }
            break;
          default: {
            std::size_t at = rng.range(unsigned(ref.size() + 1));
            int v = int(rng.next());
            ring.insert(at, v);
            ref.insert(ref.begin() + std::ptrdiff_t(at), v);
            break;
          }
        }
        ASSERT_EQ(ring.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
        }
    }
    while (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(ShadowPool, ClearRecyclesPagesAndValuesStayCorrect)
{
    ShadowMemory sh(0xaa);
    sh.fillApp(heapBase, 1 << 20, 0x11);
    std::size_t mapped = sh.mappedPages();
    EXPECT_GT(mapped, 0u);
    EXPECT_EQ(sh.pooledPages(), 0u);

    sh.clear();
    EXPECT_EQ(sh.mappedPages(), 0u);
    EXPECT_EQ(sh.pooledPages(), mapped);
    // Unmapped reads fall back to the default byte.
    EXPECT_EQ(sh.readApp(heapBase), 0xaa);

    // Re-faulting reuses pooled pages and re-initializes them.
    sh.fillApp(heapBase, 1 << 20, 0x22);
    EXPECT_EQ(sh.mappedPages(), mapped);
    EXPECT_EQ(sh.pooledPages(), 0u);
    EXPECT_EQ(sh.readApp(heapBase), 0x22);
    EXPECT_EQ(sh.readApp(heapBase + (1 << 20) - wordSize), 0x22);
    // A word just past the filled range reads default again (page
    // content was re-initialized, not recycled dirty).
    EXPECT_EQ(sh.readApp(heapBase + (1 << 20) + pageSize * wordSize),
              0xaa);
}

TEST(ShadowFill, PageSpanFillMatchesPerByteWrites)
{
    ShadowMemory bulk(0x00), loop(0x00);
    // Spans chosen to cover: inside one page, exact page, crossing two
    // and three pages, unaligned edges.
    struct Span
    {
        Addr md;
        std::uint64_t len;
        std::uint8_t v;
    };
    const Span spans[] = {
        {mdBase + 10, 5, 1},           {mdBase + 4090, 12, 2},
        {mdBase + pageSize, pageSize, 3}, {mdBase + 100, 3 * pageSize, 4},
        {mdBase + 8191, 1, 5},
    };
    for (const Span &s : spans) {
        bulk.fill(s.md, s.len, s.v);
        for (std::uint64_t i = 0; i < s.len; ++i)
            loop.write(s.md + i, s.v);
    }
    ASSERT_EQ(bulk.mappedPages(), loop.mappedPages());
    for (Addr a = mdBase; a < mdBase + 4 * pageSize; ++a)
        ASSERT_EQ(bulk.read(a), loop.read(a)) << a - mdBase;
}

class GeneratorOracleSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorOracleSweep, OracleCoherentAndKeysAlignedWithBugs)
{
    TraceGenerator g(specProfile(GetParam()));
    std::uint64_t loadsChecked = 0;
    std::uint8_t truthSeen = 0;
    for (int i = 0; i < 60000; ++i) {
        // Splice bugs mid-stream: the mirrors must regain coherence
        // once the injected sequence has drained.
        if (i == 20000) {
            g.injectBug(truthAccessUnallocated);
            g.injectBug(truthLeakDrop);
            g.injectBug(truthTaintedJump);
        }
        Instruction inst = test::fetchOne(g);
        truthSeen |= inst.truth;
        // The spliced instructions (and their helper loads) bypass
        // noteWrite by design; give the splice a drain window before
        // re-asserting the invariant.
        if (i >= 20000 && i < 20500)
            continue;
        if (inst.cls == InstClass::Load && inst.hasDst) {
            // A load's destination register mirrors exactly what the
            // loaded word holds — the invariant FADE's clean checks
            // (and the monitors' shadow propagation) rely on.
            ASSERT_EQ(g.regIsPtr(inst.tid, inst.dst),
                      g.wordIsPtr(inst.memAddr));
            ASSERT_EQ(g.regIsTainted(inst.tid, inst.dst),
                      g.wordIsTainted(inst.memAddr));
            ++loadsChecked;
        }
    }
    EXPECT_GT(loadsChecked, 1000u);
    EXPECT_TRUE(truthSeen & truthAccessUnallocated);
    EXPECT_TRUE(truthSeen & truthLeakDrop);
    EXPECT_TRUE(truthSeen & truthTaintedJump);

    // Canonical word alignment of every mirror key (the oracle masks
    // with wordKey; insert/erase sites must have used the same form).
    g.ptrWords().forEach([](Addr w) { ASSERT_EQ(w & 3, 0u); });
    g.taintWords().forEach([](Addr w) { ASSERT_EQ(w & 3, 0u); });
}

INSTANTIATE_TEST_SUITE_P(AllSpecProfiles, GeneratorOracleSweep,
                         ::testing::ValuesIn(specBenchmarks()));

} // namespace fade
