/** @file Unit tests for the statistics containers. */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace fade
{

TEST(Log2Histogram, BucketBoundaries)
{
    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Log2Histogram::bucketUpper(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketUpper(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketUpper(3), 4u);
}

TEST(Log2Histogram, Cdf)
{
    Log2Histogram h;
    for (std::uint64_t v : {0, 1, 2, 4, 8, 8, 8, 16})
        h.sample(v);
    EXPECT_EQ(h.total(), 8u);
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 1.0 / 8);
    EXPECT_DOUBLE_EQ(h.cdfAt(1), 2.0 / 8);
    EXPECT_DOUBLE_EQ(h.cdfAt(8), 7.0 / 8);
    EXPECT_DOUBLE_EQ(h.cdfAt(1024), 1.0);
    EXPECT_EQ(h.maxValue(), 16u);
}

TEST(Log2Histogram, Percentile)
{
    Log2Histogram h;
    for (int i = 0; i < 99; ++i)
        h.sample(1);
    h.sample(1024);
    EXPECT_EQ(h.percentile(0.5), 1u);
    EXPECT_EQ(h.percentile(1.0), 1024u);
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

} // namespace fade
