/**
 * @file
 * Hierarchical metric registry (DESIGN.md section 9).
 *
 * Components own their Counters and Histograms; a MetricRegistry
 * attaches non-owning references to them under dotted hierarchical
 * paths ("ssd0.ftl.gc.pages_moved") so one object can enumerate,
 * snapshot and export every statistic of a rig.
 * Gauges - instantaneous values derived from component state (free
 * blocks, WC dirty lines, BA-buffer occupancy) - are registered as
 * callbacks and evaluated at snapshot/sample time.
 *
 * Snapshots are plain data, detached from the components: sweep
 * workers snapshot their own rigs and the coordinator merges the
 * snapshots in job order, which keeps the merged result deterministic
 * no matter which worker finished first (the same contract as
 * sim/sweep.hh).
 *
 * Registration of a duplicate path is a programming error and panics:
 * silent shadowing would corrupt merged reports.
 */

#ifndef BSSD_SIM_METRICS_HH
#define BSSD_SIM_METRICS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace bssd::sim
{

/**
 * An instantaneous sampled value backed by a callback into component
 * state. Evaluated lazily (at snapshot or sampler time), so
 * registering a gauge costs nothing on the simulation hot path.
 */
class Gauge
{
  public:
    using Fn = std::function<double()>;

    Gauge(std::string name, Fn fn)
        : name_(std::move(name)), fn_(std::move(fn))
    {}

    double value() const { return fn_ ? fn_() : 0.0; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    Fn fn_;
};

/** One metric's detached snapshot row. */
struct MetricValue
{
    enum class Kind : std::uint8_t { counter, gauge, hist };

    Kind kind = Kind::counter;

    /** counter/gauge value (counters: exact integer in the double). */
    double value = 0.0;

    /** @name hist summary @{ */
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** @} */

    /** hist: per-bucket counts (Histogram::buckets() order), trailing
     *  empty buckets trimmed. */
    std::vector<std::uint64_t> buckets;

    double mean() const;

    /**
     * p-th percentile (p in [0, 100]) of a hist row, through the same
     * bucket walk as Histogram::percentile (Histogram::percentileOf).
     * @return 0 for counters/gauges or when empty.
     */
    std::uint64_t percentile(double p) const;
};

/**
 * A detached, mergeable copy of every registered metric, keyed by
 * path. std::map keeps the rows sorted, so iteration order - and any
 * serialized form - is deterministic.
 */
class MetricsSnapshot
{
  public:
    std::map<std::string, MetricValue> rows;

    const MetricValue *find(const std::string &path) const;

    /**
     * Fold @p other into this snapshot: counters and gauges add,
     * histograms add bucket-wise (exact). Paths present in only one
     * side are kept as-is. Merging in a fixed order (sweep job order)
     * yields a deterministic result.
     * @throws SimPanic when the same path has different kinds.
     */
    void merge(const MetricsSnapshot &other);

    /**
     * Emit `{"path": {...}, ...}` with stable field order; counters
     * and gauges are scalar, hist rows carry count/sum/min/max,
     * mean and p50/p99/p999.
     */
    void writeJson(std::ostream &os, int indent = 0) const;
};

/**
 * The per-rig metric registry. Holds non-owning references: every
 * registered component must outlive the registry (rigs register at
 * construction time and tear down together).
 */
class MetricRegistry
{
  public:
    /** @name Registration (duplicate paths panic) @{ */
    void addCounter(const std::string &path, const Counter &c);
    void addHistogram(const std::string &path, const Histogram &h);
    void addGauge(const std::string &path, Gauge::Fn fn);
    /** @} */

    bool contains(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

    /** All registered paths, sorted. */
    std::vector<std::string> paths() const;

    /** Registered gauge paths, sorted (the sampler's column set). */
    std::vector<std::string> gaugePaths() const;

    /** Evaluate one gauge. @throws SimPanic on unknown/non-gauge path. */
    double gaugeValue(const std::string &path) const;

    /** Detach a copy of every metric's current state. */
    MetricsSnapshot snapshot() const;

    /** snapshot().writeJson() convenience. */
    void writeJson(std::ostream &os, int indent = 0) const;

  private:
    struct Entry
    {
        MetricValue::Kind kind = MetricValue::Kind::counter;
        const Counter *counter = nullptr;
        const Histogram *hist = nullptr;
        Gauge::Fn gauge;
    };

    std::map<std::string, Entry> entries_;

    void insert(const std::string &path, Entry e);
};

/** Write @p s as a quoted JSON string (escapes quote, backslash,
 *  newline and tab): the one escaper of metric and sweep reports. */
void jsonEscape(std::ostream &os, const std::string &s);

} // namespace bssd::sim

#endif // BSSD_SIM_METRICS_HH
