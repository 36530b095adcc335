/** @file Unit tests for the simulation kernel (rng, queue, types). */

#include <gtest/gtest.h>

#include <deque>

#include "sim/queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace fade
{

TEST(Types, BlockAndPageAlign)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(130), 128u);
    EXPECT_EQ(pageAlign(4095), 0u);
    EXPECT_EQ(pageAlign(4096), 4096u);
    EXPECT_EQ(pageAlign(0x12345), 0x12000u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        std::uint32_t v = r.range(17);
        ASSERT_LT(v, 17u);
    }
    EXPECT_EQ(r.range(0), 0u);
    EXPECT_EQ(r.range(1), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, GeometricMean)
{
    Rng r(23);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.geometric(0.1);
    EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, GeometricCap)
{
    Rng r(29);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LE(r.geometric(0.001, 50), 50u);
}

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, CapacityEnforced)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3));
    EXPECT_EQ(q.rejects(), 1u);
    q.pop();
    EXPECT_TRUE(q.push(3));
}

TEST(BoundedQueue, UnboundedWhenZeroCapacity)
{
    BoundedQueue<int> q(0);
    for (int i = 0; i < 100000; ++i)
        ASSERT_TRUE(q.push(i));
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 100000u);
}

TEST(BoundedQueue, OccupancyHistogram)
{
    BoundedQueue<int> q(8);
    q.push(1); // occupancy 1
    q.push(2); // occupancy 2
    q.pop();
    q.push(3); // occupancy 2
    EXPECT_EQ(q.occupancy().total(), 3u);
    EXPECT_EQ(q.pushes(), 3u);
    EXPECT_EQ(q.pops(), 1u);
}

TEST(BoundedQueue, StatsReset)
{
    BoundedQueue<int> q(2);
    q.push(1);
    q.push(2);
    q.push(3);
    q.resetStats();
    EXPECT_EQ(q.pushes(), 0u);
    EXPECT_EQ(q.rejects(), 0u);
    EXPECT_EQ(q.size(), 2u) << "contents survive stats reset";
}

TEST(BoundedQueue, PopRunDiscardsAndClamps)
{
    BoundedQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.push(i);

    // Discarding popRun: accounted as min(n, size()) pops.
    EXPECT_EQ(q.popRun(2), 2u);
    EXPECT_EQ(q.pops(), 2u);
    EXPECT_EQ(q.front(), 2);

    // Asking past the end clamps instead of panicking.
    EXPECT_EQ(q.popRun(100), 4u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pops(), 6u);
    EXPECT_EQ(q.popRun(1), 0u) << "empty queue pops nothing";
    EXPECT_EQ(q.pops(), 6u);
}

/** Property: occupancy histogram total equals pushes. */
class QueueCapacitySweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(QueueCapacitySweep, PushPopInvariants)
{
    std::size_t cap = GetParam();
    BoundedQueue<int> q(cap);
    Rng r(cap + 1);
    int pushed = 0, popped = 0;
    for (int i = 0; i < 5000; ++i) {
        if (r.chance(0.55)) {
            if (q.push(i))
                ++pushed;
        } else if (!q.empty()) {
            q.pop();
            ++popped;
        }
        if (cap) {
            ASSERT_LE(q.size(), cap);
        }
        ASSERT_EQ(q.size(), std::size_t(pushed - popped));
    }
    EXPECT_EQ(q.pushes(), std::uint64_t(pushed));
    EXPECT_EQ(q.occupancy().total(), std::uint64_t(pushed));
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueCapacitySweep,
                         ::testing::Values(1, 2, 8, 16, 32, 0));

TEST(BoundedQueue, RingWraparoundPreservesFifoOrder)
{
    // Drive the ring's head all the way around a small buffer several
    // times with interleaved push/pop, checking order throughout.
    BoundedQueue<int> q(3);
    int next = 0, expect = 0;
    q.push(next++);
    for (int i = 0; i < 50; ++i) {
        q.push(next++);
        ASSERT_EQ(q.pop(), expect++);
    }
    ASSERT_EQ(q.pop(), expect++);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, UnboundedGrowthPreservesOrderAfterWrap)
{
    // Force a mid-ring grow: pop a prefix so the contents straddle the
    // wrap point, then push past the current storage size.
    BoundedQueue<int> q(0);
    for (int i = 0; i < 12; ++i)
        q.push(i);
    for (int i = 0; i < 10; ++i)
        ASSERT_EQ(q.pop(), i);
    for (int i = 12; i < 100; ++i)
        q.push(i);
    for (int i = 10; i < 100; ++i)
        ASSERT_EQ(q.pop(), i);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, PopRunDiscardsAndCounts)
{
    BoundedQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.push(i);
    EXPECT_EQ(q.popRun(4), 4u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pops(), 4u);
    EXPECT_EQ(q.front(), 4);
    // Over-ask clamps to the population, like that many pop() calls.
    EXPECT_EQ(q.popRun(10), 2u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pops(), 6u);
    EXPECT_EQ(q.popRun(3), 0u);
}

TEST(BoundedQueue, BulkAndScalarInterleaveLikeAFifo)
{
    // Randomized cross-check: a ring queue driven by a mix of scalar
    // and bulk operations behaves exactly like a reference FIFO model.
    BoundedQueue<int> q(16);
    std::deque<int> model;
    Rng r(7);
    int next = 0;
    for (int step = 0; step < 20000; ++step) {
        double dice = r.uniform();
        if (dice < 0.55) {
            bool ok = q.push(next);
            bool mok = model.size() < 16;
            ASSERT_EQ(ok, mok);
            if (mok)
                model.push_back(next);
            ++next;
        } else if (dice < 0.8) {
            if (!model.empty()) {
                ASSERT_EQ(q.pop(), model.front());
                model.pop_front();
            }
        } else {
            std::size_t n = r.range(7);
            std::size_t k = q.popRun(n);
            ASSERT_EQ(k, std::min(n, model.size()));
            model.erase(model.begin(), model.begin() + k);
        }
        ASSERT_EQ(q.size(), model.size());
        if (!model.empty()) {
            ASSERT_EQ(q.front(), model.front());
        }
    }
}

} // namespace fade
