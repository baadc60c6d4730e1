/**
 * @file
 * Histogram types used throughout the profiler.
 *
 * Two shapes are needed by the paper's figures:
 *  - LinearHistogram: fixed-width bins (e.g. re-use-lifetime histograms of
 *    Figures 10 and 11, bin size 1000);
 *  - BoundsHistogram: arbitrary ascending upper bounds (e.g. the re-use
 *    breakdowns of Figures 8 and 12 with bins {0, 1-9, >9} and
 *    {<10, <100, <1000, <10000, >=10000}).
 */

#ifndef SIGIL_SUPPORT_HISTOGRAM_HH
#define SIGIL_SUPPORT_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sigil {

/**
 * Fixed-width-bin histogram over unsigned samples.
 *
 * Bins grow on demand up to a configurable cap; samples past the cap
 * accumulate in a final overflow bin so pathological tails cannot explode
 * memory.
 */
class LinearHistogram
{
  public:
    /**
     * @param bin_width Width of each bin; must be > 0. The default of
     *        1000 matches the paper's re-use-lifetime histograms.
     * @param max_bins Cap on the number of regular bins.
     */
    explicit LinearHistogram(std::uint64_t bin_width = 1000,
                             std::size_t max_bins = 1 << 20);

    /**
     * Record one sample, weighted by count: exactly equivalent to count
     * calls of add(value) (a no-op for count == 0).
     */
    void add(std::uint64_t value, std::uint64_t count = 1);

    /** Merge another histogram with the same bin width into this one. */
    void merge(const LinearHistogram &other);

    std::uint64_t binWidth() const { return binWidth_; }

    /** Number of populated regular bins (not counting overflow). */
    std::size_t numBins() const { return bins_.size(); }

    /** Count in regular bin i (bin covers [i*width, (i+1)*width)). */
    std::uint64_t binCount(std::size_t i) const;

    /** Count of samples beyond the bin cap. */
    std::uint64_t overflowCount() const { return overflow_; }

    /** Total weighted samples. */
    std::uint64_t totalCount() const { return total_; }

    /** Sum of all sample values (for means). */
    std::uint64_t totalValue() const { return sumValues_; }

    /** Mean sample value, 0 if empty. */
    double mean() const;

    /** Largest sample recorded. */
    std::uint64_t maxValue() const { return maxValue_; }

    /**
     * Restore state captured by a serializer. Bin counts are the dense
     * prefix of regular bins; the remaining fields are the summary
     * statistics that cannot be recomputed from the bins alone.
     */
    void restore(std::vector<std::uint64_t> bins, std::uint64_t overflow,
                 std::uint64_t sum_values, std::uint64_t max_value);

  private:
    std::uint64_t binWidth_;
    std::size_t maxBins_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t sumValues_ = 0;
    std::uint64_t maxValue_ = 0;
};

/**
 * Histogram over explicit ascending upper bounds.
 *
 * A sample v falls into the first bin whose bound satisfies v <= bound;
 * samples exceeding every bound land in a final unbounded bin.
 */
class BoundsHistogram
{
  public:
    /** @param bounds Strictly ascending inclusive upper bounds. */
    explicit BoundsHistogram(std::vector<std::uint64_t> bounds);

    /** Record count samples of value (a no-op for count == 0). */
    void add(std::uint64_t value, std::uint64_t count = 1);
    void merge(const BoundsHistogram &other);

    /** Number of bins, including the final unbounded one. */
    std::size_t numBins() const { return counts_.size(); }

    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t totalCount() const { return total_; }

    /** Fraction of samples in bin i; 0 if the histogram is empty. */
    double binFraction(std::size_t i) const;

    /** Human-readable label for bin i, e.g. "0", "1-9", ">9". */
    std::string binLabel(std::size_t i) const;

    /** Restore counts captured by a serializer (one per bin). */
    void restore(const std::vector<std::uint64_t> &counts);

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace sigil

#endif // SIGIL_SUPPORT_HISTOGRAM_HH
