/**
 * @file
 * Unit and property tests for the histogram types.
 */

#include <gtest/gtest.h>

#include "support/histogram.hh"
#include "support/rng.hh"

namespace sigil {
namespace {

TEST(LinearHistogram, BinsSamplesByWidth)
{
    LinearHistogram h(1000);
    h.add(0);
    h.add(999);
    h.add(1000);
    h.add(2500, 3);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 3u);
    EXPECT_EQ(h.totalCount(), 6u);
    EXPECT_EQ(h.maxValue(), 2500u);
}

TEST(LinearHistogram, MeanIsWeighted)
{
    LinearHistogram h(10);
    h.add(10, 2);
    h.add(40, 2);
    EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(LinearHistogram, EmptyMeanIsZero)
{
    LinearHistogram h(10);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LinearHistogram, OverflowBinCatchesTail)
{
    LinearHistogram h(10, 4); // bins cover [0, 40)
    h.add(39);
    h.add(40);
    h.add(100000);
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.totalCount(), 3u);
}

TEST(LinearHistogram, MergeAddsCounts)
{
    LinearHistogram a(100), b(100);
    a.add(50);
    a.add(250);
    b.add(60, 2);
    a.merge(b);
    EXPECT_EQ(a.binCount(0), 3u);
    EXPECT_EQ(a.binCount(2), 1u);
    EXPECT_EQ(a.totalCount(), 4u);
}

TEST(LinearHistogram, RestoreRoundTrips)
{
    LinearHistogram h(1000);
    h.add(500, 3);
    h.add(4200);
    LinearHistogram r(1000);
    std::vector<std::uint64_t> bins;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        bins.push_back(h.binCount(i));
    r.restore(bins, h.overflowCount(), h.totalValue(), h.maxValue());
    EXPECT_EQ(r.totalCount(), h.totalCount());
    EXPECT_DOUBLE_EQ(r.mean(), h.mean());
    EXPECT_EQ(r.binCount(0), h.binCount(0));
    EXPECT_EQ(r.binCount(4), h.binCount(4));
}

TEST(BoundsHistogram, PaperFig8Bins)
{
    // The Figure 8 breakdown: {0, 1-9, >9} re-use counts.
    BoundsHistogram h(std::vector<std::uint64_t>{0, 9});
    h.add(0, 5);
    h.add(1);
    h.add(9);
    h.add(10);
    h.add(1000);
    EXPECT_EQ(h.numBins(), 3u);
    EXPECT_EQ(h.binCount(0), 5u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(2), 2u);
    EXPECT_EQ(h.binLabel(0), "0");
    EXPECT_EQ(h.binLabel(1), "1-9");
    EXPECT_EQ(h.binLabel(2), ">9");
}

TEST(BoundsHistogram, PaperFig12Bins)
{
    BoundsHistogram h(std::vector<std::uint64_t>{9, 99, 999, 9999});
    h.add(5);
    h.add(50);
    h.add(500);
    h.add(5000);
    h.add(50000);
    EXPECT_EQ(h.numBins(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(h.binCount(i), 1u) << "bin " << i;
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.2);
}

TEST(BoundsHistogram, FractionsSumToOne)
{
    BoundsHistogram h(std::vector<std::uint64_t>{3, 7});
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        h.add(rng.nextBounded(20));
    double sum = 0;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        sum += h.binFraction(i);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BoundsHistogram, RestoreReplacesCounts)
{
    BoundsHistogram h(std::vector<std::uint64_t>{0, 9});
    h.add(3);
    h.restore({10, 20, 30});
    EXPECT_EQ(h.binCount(0), 10u);
    EXPECT_EQ(h.binCount(2), 30u);
    EXPECT_EQ(h.totalCount(), 60u);
}

/** Property: every sample lands in exactly one bin. */
class BoundsProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BoundsProperty, TotalEqualsSamples)
{
    BoundsHistogram h(std::vector<std::uint64_t>{1, 10, 100, 1000});
    Rng rng(GetParam());
    std::uint64_t n = 200 + rng.nextBounded(800);
    for (std::uint64_t i = 0; i < n; ++i)
        h.add(rng.nextBounded(5000));
    std::uint64_t binsum = 0;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        binsum += h.binCount(i);
    EXPECT_EQ(binsum, n);
    EXPECT_EQ(h.totalCount(), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/** Property: linear histogram bin index always floor(v / width). */
class LinearProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LinearProperty, BinPlacement)
{
    std::uint64_t width = 1 + GetParam() * 37;
    LinearHistogram h(width);
    Rng rng(GetParam() * 1311);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t v = rng.nextBounded(width * 50);
        std::uint64_t before = h.binCount(v / width);
        h.add(v);
        EXPECT_EQ(h.binCount(v / width), before + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, LinearProperty,
                         ::testing::Values(1, 2, 3, 10, 27));

/**
 * Property: a counted add is exactly count single adds — bins,
 * overflow, total, sum, max and numBins() — including count 0, the
 * overflow bin and bin edges. Run-level classification closes groups
 * of equal re-use runs with counted adds and relies on this.
 */
class CountedAddProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CountedAddProperty, CountedAddEqualsRepeatedAdds)
{
    Rng rng(GetParam());
    const std::uint64_t width = 10;
    const std::size_t max_bins = 8; // bins cover [0, 80)
    LinearHistogram lc(width, max_bins), lr(width, max_bins);
    BoundsHistogram bc(std::vector<std::uint64_t>{0, 9, 99});
    BoundsHistogram br(std::vector<std::uint64_t>{0, 9, 99});
    // Bin edges of both shapes, and values past every bin.
    const std::uint64_t edges[] = {0, 1, 9, 10, 79, 80, 99, 100, 1000};
    for (int i = 0; i < 400; ++i) {
        std::uint64_t v = rng.nextBounded(3) == 0
                              ? edges[rng.nextBounded(9)]
                              : rng.nextBounded(120);
        std::uint64_t n = rng.nextBounded(6);
        lc.add(v, n);
        bc.add(v, n);
        for (std::uint64_t k = 0; k < n; ++k) {
            lr.add(v);
            br.add(v);
        }
        ASSERT_EQ(lc.numBins(), lr.numBins()) << "v=" << v << " n=" << n;
        ASSERT_EQ(lc.maxValue(), lr.maxValue()) << "v=" << v << " n=" << n;
    }
    for (std::size_t b = 0; b < max_bins; ++b)
        EXPECT_EQ(lc.binCount(b), lr.binCount(b)) << "bin " << b;
    EXPECT_EQ(lc.overflowCount(), lr.overflowCount());
    EXPECT_EQ(lc.totalCount(), lr.totalCount());
    EXPECT_EQ(lc.totalValue(), lr.totalValue());
    ASSERT_EQ(bc.numBins(), br.numBins());
    for (std::size_t b = 0; b < bc.numBins(); ++b)
        EXPECT_EQ(bc.binCount(b), br.binCount(b)) << "bin " << b;
    EXPECT_EQ(bc.totalCount(), br.totalCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountedAddProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace sigil
