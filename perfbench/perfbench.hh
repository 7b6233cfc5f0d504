/**
 * @file
 * The repository benchmark: shared types of its three workloads.
 *
 * One binary runs one workload per process (so peak RSS belongs to
 * that workload alone) and prints, as its last stdout line, one JSON
 * object with the run's metrics. run.py builds the binary from the
 * checkout and relays that line; README.md in this directory lists
 * every metric, its unit and direction, and the layer each per-layer
 * metric belongs to.
 *
 * Wall time is read only through bench/support/stopwatch.hh and peak
 * RSS only through getrusage, so nothing measured on the host clock
 * can feed back into simulated state.
 */

#ifndef BSSD_PERFBENCH_PERFBENCH_HH
#define BSSD_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hh"

namespace bssd::perfbench
{

/** How one run was asked to behave (the flags run.py passes on). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Wall budget of the timed repetitions. */
    double seconds = 10.0;
    /** Per-layer run instead of the end-to-end run. */
    bool trace = false;
    /** Shortened workloads, for the smoke test. */
    bool quick = false;
    /**
     * Corrupt one check's input on purpose, so the smoke test can
     * prove the check fails: "drop-op", "digest" or "band".
     */
    std::string corrupt;
};

/** What a workload hands back to main(). */
struct Outcome
{
    /** Metric values by catalogue name (see main.cc). */
    std::map<std::string, double> metrics;
    /** Operations offered (cluster) or issued (apps). */
    std::uint64_t attempted = 0;
    /** Operations not acknowledged. */
    std::uint64_t failed = 0;
    /** One line per failed correctness check. */
    std::vector<std::string> failures;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** cluster-steady (@p burstMove false) or cluster-burst-move. */
Outcome runClusterWorkload(const Options &opt, bool burstMove);

/** apps-wal: the Fig. 9 grid. */
Outcome runAppsWorkload(const Options &opt);

/** @name The Fig. 9 grid, in bench_fig9_apps order @{ */
enum class AppsStore
{
    pg,
    rocks,
    redis,
};

enum class AppsRig
{
    dc,
    ull,
    twoB,
    async,
};

struct AppsCell
{
    AppsStore store;
    AppsRig rig;
    /** YCSB payload bytes; 0 for minipg + Linkbench. */
    std::uint32_t payload;
};

/** The 28 cells: minipg, then minirocks and miniredis per payload. */
std::vector<AppsCell> appsCells();

/** Per-layer metric name of a cell ("apps.rocks.2b.16.ops_s"). */
std::string appsCellMetric(const AppsCell &cell);
/** @} */

/** @name Small helpers @{ */
double median(std::vector<double> v);
/** Geometric mean; 0 when any value is not positive. */
double geomean(const std::vector<double> &v);
/** Peak resident set of this process so far, in MiB. */
double peakRssMb();
/** @} */

/**
 * Fold the rows of every rig in @p snap (paths "<rig>.<layer>..."
 * whose first segment starts with @p rigPrefix) into fleet-wide
 * layer rows, and add the wal / wc / pcie / ssd / ftl / nand
 * per-layer metrics computed from them to @p out.
 */
void addDeviceLayers(const sim::MetricsSnapshot &snap,
                     const std::string &rigPrefix,
                     std::map<std::string, double> &out);

} // namespace bssd::perfbench

#endif // BSSD_PERFBENCH_PERFBENCH_HH
