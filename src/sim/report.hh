/**
 * @file
 * Machine-readable run reports and the periodic gauge sampler
 * (DESIGN.md section 9).
 *
 * GaugeSampler turns the registry's gauges (GC backlog, free blocks,
 * WAF, BA-buffer occupancy, WC dirty lines, ...) into a time series on
 * the simulated clock. The simulation has no global scheduler to hang
 * a timer on - timing is straight-line - so the driving loop pumps
 * sample() with its current tick and the sampler records one row each
 * time the clock crosses the next due point. Same op stream, same
 * rows.
 *
 * RunReport is the end-of-run JSON document emitted by the bench rigs
 * and tools/crash_campaign: bench/config identity, the full metrics
 * snapshot, the per-phase latency breakdown from the tracer, and the
 * sampled gauge series when one was collected.
 */

#ifndef BSSD_SIM_REPORT_HH
#define BSSD_SIM_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::sim
{

/**
 * A gauge time series: one column per gauge path, one row per sample
 * tick. A multi-shard run registers every shard's gauges in one
 * registry, so its table's columns come out path-sorted.
 */
struct SeriesTable
{
    struct Row
    {
        Tick at = 0;
        std::vector<double> values;
    };

    /** Simulated ticks between rows. */
    Tick period = 0;
    /** Gauge paths, sorted. */
    std::vector<std::string> columns;
    /** Rows in tick order; values index-aligned with columns. */
    std::vector<Row> rows;

    /** `{"period_ticks": ..., "columns": [...], "rows": [[at, v...],
     *  ...]}` */
    void writeJson(std::ostream &os, int indent = 0) const;
};

/** Periodic sampler over a registry's gauges (simulated time). */
class GaugeSampler
{
  public:
    /**
     * @param registry gauge source; must outlive the sampler. The
     *                 column set is fixed at construction.
     * @param period   simulated ticks between rows.
     */
    GaugeSampler(const MetricRegistry &registry, Tick period);

    /**
     * Advance the sampled clock to @p now: records one row the first
     * time @p now reaches or passes the next due tick. Cheap when not
     * due (one compare).
     */
    void sample(Tick now);

    /** The rows recorded so far. */
    const SeriesTable &table() const { return table_; }

  private:
    const MetricRegistry &registry_;
    Tick nextDue_ = 0;
    SeriesTable table_;
};

/** End-of-run machine-readable report. */
struct RunReport
{
    /** Emitting binary ("bench_fig7_latency", "crash_campaign", ...). */
    std::string bench;
    /** Free-form configuration identity (preset, op mix, ...). */
    std::string config;
    std::uint64_t seed = 0;

    MetricsSnapshot metrics;
    std::vector<Tracer::PhaseStat> phases;
    /** Optional gauge time series; null when none was sampled. */
    const SeriesTable *series = nullptr;

    /**
     * Emit the report as one JSON object with stable field order:
     * identity, "metrics" (path-sorted), "phases" (cat/name-sorted
     * rows with count/total/min/max/p50/p99 ticks), and "series".
     */
    void writeJson(std::ostream &os) const;
};

} // namespace bssd::sim

#endif // BSSD_SIM_REPORT_HH
