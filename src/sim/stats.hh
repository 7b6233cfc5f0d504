/**
 * @file
 * Lightweight statistics: counters and the one percentile-bearing
 * type, a fixed-footprint log-linear histogram.
 *
 * Every experiment in the benchmark harness reports through these.
 * Histogram keeps exact count/sum/min/max plus an exact count per
 * bucket, so memory stays constant no matter how many samples a run
 * records, merges are exact, and every percentile - p99.9 included -
 * sees every sample, with a bounded relative error. record() is a
 * handful of bit operations, cheap enough for per-I/O instrumentation
 * inside the device models.
 */

#ifndef BSSD_SIM_STATS_HH
#define BSSD_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "sim/ticks.hh"

namespace bssd::sim
{

/** A named monotonic counter. */
class Counter
{
  public:
    explicit Counter(std::string name = "counter")
        : name_(std::move(name))
    {}

    void add(std::uint64_t v = 1) { value_ += v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

/**
 * Fixed-bucket log-linear histogram for high-volume hot paths.
 *
 * Values below kSubBuckets are counted exactly; above that each
 * power-of-two decade is split into kSubBuckets linear sub-buckets, so
 * the relative quantization error of any percentile is bounded by
 * 1 / kSubBuckets (3.125%) — percentile() answers with the bucket
 * midpoint, clamped to the exact observed [min, max], which halves the
 * worst case again. record() is branch-light: an index computation
 * (count-leading-zeros plus shifts) and one increment. No allocation,
 * no RNG, no cache invalidation — suitable for per-I/O instrumentation
 * in the device and FTL models.
 */
class Histogram
{
  public:
    /** Linear sub-buckets per power-of-two decade. */
    static constexpr unsigned kSubBits = 5;
    static constexpr unsigned kSubBuckets = 1u << kSubBits;
    /** Documented relative error bound of percentile(). */
    static constexpr double kRelativeError = 1.0 / kSubBuckets;

    explicit Histogram(std::string name = "hist");

    /** Record one sample; O(1), allocation-free. */
    void record(std::uint64_t v);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /**
     * p-th percentile (p in [0, 100]) with relative error bounded by
     * kRelativeError. @return 0 when no samples were recorded.
     */
    std::uint64_t percentile(double p) const;

    /** Fold @p other into this histogram (exact: bucket-wise add). */
    void merge(const Histogram &other);

    /**
     * Zero every bucket and restore the min/max sentinels so a reused
     * instance is indistinguishable from a fresh one.
     */
    void reset();
    const std::string &name() const { return name_; }

    /** Per-bucket counts in index order (registry snapshots). */
    std::span<const std::uint64_t> buckets() const { return buckets_; }

    /**
     * The nearest-rank bucket walk behind every percentile: the
     * sample at rank llround(p/100 * (count-1)) is answered with its
     * bucket's midpoint, clamped to the exact [min, max]. percentile()
     * walks the live buckets; MetricValue::percentile walks a
     * snapshot's copy.
     *
     * @param buckets per-bucket counts indexed like buckets(); trailing
     *                empty buckets may be omitted
     * @param count   total of @p buckets
     * @return 0 when @p count is 0; min / max for p <= 0 / p >= 100
     */
    static std::uint64_t
    percentileOf(std::span<const std::uint64_t> buckets,
                 std::uint64_t count, std::uint64_t min, std::uint64_t max,
                 double p);

  private:
    // Index space: [0, kSubBuckets) exact values, then one group of
    // kSubBuckets per leading-bit position above kSubBits. A uint64
    // value's top group is (63 - kSubBits) + 1, hence:
    static constexpr unsigned kGroups = 64 - kSubBits;
    static constexpr unsigned kBuckets = (kGroups + 1) * kSubBuckets;

    static unsigned bucketIndex(std::uint64_t v);
    static std::uint64_t bucketMidpoint(unsigned index);

    std::string name_;
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

} // namespace bssd::sim

#endif // BSSD_SIM_STATS_HH
