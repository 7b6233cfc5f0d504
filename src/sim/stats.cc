#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace bssd::sim
{

Histogram::Histogram(std::string name) : name_(std::move(name)) {}

unsigned
Histogram::bucketIndex(std::uint64_t v)
{
    if (v < kSubBuckets)
        return static_cast<unsigned>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    const auto sub =
        static_cast<unsigned>((v >> shift) & (kSubBuckets - 1));
    return (shift + 1) * kSubBuckets + sub;
}

std::uint64_t
Histogram::bucketMidpoint(unsigned index)
{
    const unsigned group = index / kSubBuckets;
    const unsigned sub = index % kSubBuckets;
    if (group == 0)
        return sub; // exact region
    const unsigned shift = group - 1;
    const std::uint64_t lo =
        (static_cast<std::uint64_t>(kSubBuckets) + sub) << shift;
    return lo + ((std::uint64_t(1) << shift) >> 1);
}

void
Histogram::record(std::uint64_t v)
{
    ++count_;
    sum_ += v;
    if (v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
    ++buckets_[bucketIndex(v)];
}

double
Histogram::mean() const
{
    return count_ == 0
        ? 0.0
        : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t
Histogram::percentileOf(std::span<const std::uint64_t> buckets,
                        std::uint64_t count, std::uint64_t min,
                        std::uint64_t max, double p)
{
    if (count == 0)
        return 0;
    if (p <= 0.0)
        return min;
    if (p >= 100.0)
        return max;
    const auto target = static_cast<std::uint64_t>(
        std::llround(p / 100.0 * static_cast<double>(count - 1)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (cum > target) {
            return std::clamp(
                bucketMidpoint(static_cast<unsigned>(i)), min, max);
        }
    }
    return max;
}

std::uint64_t
Histogram::percentile(double p) const
{
    return percentileOf(buckets_, count_, min(), max_, p);
}

void
Histogram::merge(const Histogram &other)
{
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Histogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t(0);
    max_ = 0;
}

} // namespace bssd::sim
