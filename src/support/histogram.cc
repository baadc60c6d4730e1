#include "histogram.hh"

#include "logging.hh"

namespace sigil {

LinearHistogram::LinearHistogram(std::uint64_t bin_width,
                                 std::size_t max_bins)
    : binWidth_(bin_width), maxBins_(max_bins)
{
    if (bin_width == 0)
        fatal("LinearHistogram: bin width must be > 0");
    if (max_bins == 0)
        fatal("LinearHistogram: max bins must be > 0");
}

void
LinearHistogram::add(std::uint64_t value, std::uint64_t count)
{
    // A zero-weight sample is no sample: it must not grow the bins or
    // raise the maximum.
    if (count == 0)
        return;
    std::size_t bin = static_cast<std::size_t>(value / binWidth_);
    if (bin >= maxBins_) {
        overflow_ += count;
    } else {
        if (bin >= bins_.size())
            bins_.resize(bin + 1, 0);
        bins_[bin] += count;
    }
    total_ += count;
    sumValues_ += value * count;
    if (value > maxValue_)
        maxValue_ = value;
}

void
LinearHistogram::merge(const LinearHistogram &other)
{
    if (other.binWidth_ != binWidth_)
        panic("LinearHistogram::merge: mismatched bin widths");
    if (other.bins_.size() > bins_.size())
        bins_.resize(other.bins_.size(), 0);
    for (std::size_t i = 0; i < other.bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    overflow_ += other.overflow_;
    total_ += other.total_;
    sumValues_ += other.sumValues_;
    if (other.maxValue_ > maxValue_)
        maxValue_ = other.maxValue_;
}

std::uint64_t
LinearHistogram::binCount(std::size_t i) const
{
    return i < bins_.size() ? bins_[i] : 0;
}

void
LinearHistogram::restore(std::vector<std::uint64_t> bins,
                         std::uint64_t overflow, std::uint64_t sum_values,
                         std::uint64_t max_value)
{
    if (bins.size() > maxBins_)
        fatal("LinearHistogram::restore: too many bins");
    bins_ = std::move(bins);
    overflow_ = overflow;
    sumValues_ = sum_values;
    maxValue_ = max_value;
    total_ = overflow_;
    for (std::uint64_t c : bins_)
        total_ += c;
}

double
LinearHistogram::mean() const
{
    return total_ == 0 ? 0.0
                       : static_cast<double>(sumValues_) /
                             static_cast<double>(total_);
}

BoundsHistogram::BoundsHistogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1])
            fatal("BoundsHistogram: bounds must be strictly ascending");
    }
}

void
BoundsHistogram::add(std::uint64_t value, std::uint64_t count)
{
    if (count == 0)
        return;
    std::size_t bin = bounds_.size();
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            bin = i;
            break;
        }
    }
    counts_[bin] += count;
    total_ += count;
}

void
BoundsHistogram::merge(const BoundsHistogram &other)
{
    if (other.bounds_ != bounds_)
        panic("BoundsHistogram::merge: mismatched bounds");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

void
BoundsHistogram::restore(const std::vector<std::uint64_t> &counts)
{
    if (counts.size() != counts_.size())
        fatal("BoundsHistogram::restore: expected %zu counts, got %zu",
              counts_.size(), counts.size());
    counts_ = counts;
    total_ = 0;
    for (std::uint64_t c : counts_)
        total_ += c;
}

double
BoundsHistogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

std::string
BoundsHistogram::binLabel(std::size_t i) const
{
    if (i >= counts_.size())
        panic("BoundsHistogram::binLabel: bin out of range");
    if (i == bounds_.size()) {
        std::string label = ">";
        label += std::to_string(bounds_.back());
        return label;
    }
    std::uint64_t lo = i == 0 ? 0 : bounds_[i - 1] + 1;
    std::uint64_t hi = bounds_[i];
    if (lo == hi)
        return std::to_string(lo);
    return std::to_string(lo) + "-" + std::to_string(hi);
}

} // namespace sigil
