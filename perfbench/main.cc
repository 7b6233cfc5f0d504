/**
 * @file
 * Entry point of the repository benchmark (see README.md here).
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--quick] [--corrupt drop-op|digest|band]
 *
 * NAME is cluster-steady, cluster-burst-move or apps-wal. With
 * --trace 0 the last stdout line carries every end-to-end metric,
 * with --trace 1 every per-layer metric; a layer the workload does
 * not exercise reports 0. Exit code 1 when any correctness check
 * fails, 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace bssd::perfbench
{

namespace
{

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Every end-to-end metric, printed by every --trace 0 run. */
std::vector<MetricDef>
endToEndMetrics()
{
    return {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"sim_ops_per_s", "ops/s"},
    };
}

/** Every per-layer metric, printed by every --trace 1 run. */
std::vector<MetricDef>
perLayerMetrics()
{
    std::vector<MetricDef> defs = {
        {"trace.wall_s", "s"},
        {"cluster.build_s", "s"},
        {"cluster.run_s", "s"},
        {"cluster.verify_s", "s"},
        {"cluster.digest_s", "s"},
        {"cluster.report_s", "s"},
        {"cluster.moved_keys", "count"},
        {"cluster.horizon_s", "sim_s"},
        {"engine.events", "count"},
        {"engine.rounds", "count"},
        {"engine.messages", "count"},
        {"engine.events_per_round", "ratio"},
        {"engine.stall_ticks", "ticks"},
        {"engine.host_us_per_event", "us"},
        {"engine.speedup", "ratio"},
        {"router.batches", "count"},
        {"router.batch_p99_us", "us"},
        {"router.op_mean_us", "us"},
        {"router.op_p50_us", "us"},
        {"router.op_p99_us", "us"},
        {"router.op_p999_us", "us"},
        {"slo.cluster.held_ops", "count"},
        {"slo.cluster.hold_ticks", "ticks"},
        {"apps.setup_s", "s"},
        {"apps.pg.run_s", "s"},
        {"apps.rocks.run_s", "s"},
        {"apps.redis.run_s", "s"},
        {"apps.op_mean_us", "us"},
        {"apps.op_p99_us", "us"},
        {"apps.speedup_2b_dc", "ratio"},
        {"apps.speedup_2b_ull", "ratio"},
    };
    for (const AppsCell &cell : appsCells())
        defs.push_back({appsCellMetric(cell), "ops/s"});
    const std::vector<MetricDef> device = {
        {"wal.bytes_appended", "bytes"},
        {"wal.half_switches", "count"},
        {"pcie.posted_bursts", "count"},
        {"pcie.non_posted_reads", "count"},
        {"wc.capacity_evictions", "count"},
        {"ssd.writes", "count"},
        {"ssd.flushes", "count"},
        {"ssd.write_lat_p99_us", "us"},
        {"ssd.dram.hit_ratio", "ratio"},
        {"ftl.waf", "ratio"},
        {"ftl.gc.pause_count", "count"},
        {"ftl.gc.pause_p99_us", "us"},
        {"ftl.gc.pages_moved", "count"},
        {"nand.pages_programmed", "count"},
        {"nand.blocks_erased", "count"},
        {"nand.chan.busy_ticks", "ticks"},
    };
    defs.insert(defs.end(), device.begin(), device.end());
    return defs;
}

double
rowValue(const sim::MetricsSnapshot &s, const std::string &path)
{
    const sim::MetricValue *v = s.find(path);
    return v ? v->value : 0.0;
}

/** A histogram row's p99 in microseconds (rows hold ticks). */
double
rowP99Us(const sim::MetricsSnapshot &s, const std::string &path)
{
    const sim::MetricValue *v = s.find(path);
    return v ? static_cast<double>(v->percentile(99.0)) / 1e3 : 0.0;
}

std::string
argValue(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag)
            return argv[i + 1];
    }
    return {};
}

bool
hasFlag(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i < argc; ++i) {
        if (argv[i] == flag)
            return true;
    }
    return false;
}

void
printResult(const Outcome &out, const std::vector<MetricDef> &defs)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < defs.size(); ++i) {
        auto it = out.metrics.find(defs[i].name);
        double v = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name.c_str(), v,
                    defs[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
run(int argc, char **argv)
{
    Options opt;
    opt.workload = argValue(argc, argv, "--workload");
    const std::string seed = argValue(argc, argv, "--seed");
    const std::string seconds = argValue(argc, argv, "--seconds");
    const std::string trace = argValue(argc, argv, "--trace");
    if (opt.workload.empty() || seed.empty() || seconds.empty() ||
        (trace != "0" && trace != "1")) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--quick] "
                     "[--corrupt drop-op|digest|band]\n");
        return 2;
    }
    opt.seed = std::stoull(seed);
    opt.seconds = std::stod(seconds);
    if (!(opt.seconds >= 0.0)) {
        std::fprintf(stderr, "--seconds must be >= 0\n");
        return 2;
    }
    opt.trace = trace == "1";
    opt.quick = hasFlag(argc, argv, "--quick");
    opt.corrupt = argValue(argc, argv, "--corrupt");

    Outcome out;
    if (opt.workload == "cluster-steady") {
        out = runClusterWorkload(opt, false);
    } else if (opt.workload == "cluster-burst-move") {
        out = runClusterWorkload(opt, true);
    } else if (opt.workload == "apps-wal") {
        out = runAppsWorkload(opt);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    if (!opt.trace)
        out.metrics["peak_rss_mb"] = peakRssMb();

    const std::vector<MetricDef> defs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    for (const auto &[name, value] : out.metrics) {
        const bool known =
            std::any_of(defs.begin(), defs.end(),
                        [&](const MetricDef &d) { return d.name == name; });
        if (!known) {
            std::fprintf(stderr, "metric %s is not in the catalogue\n",
                         name.c_str());
            return 2;
        }
    }
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

    std::printf("# host: hardware_concurrency=%u build_type=%s "
                "workload=%s seed=%llu trace=%d\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0);
    printResult(out, defs);
    return out.failures.empty() ? 0 : 1;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
addDeviceLayers(const sim::MetricsSnapshot &snap,
                const std::string &rigPrefix,
                std::map<std::string, double> &out)
{
    // "shard3.ba.ssd.ftl.waf" and "rig.ssd.ftl.waf" both fold into
    // "ssd.ftl.waf": drop the rig segment, then the 2B-SSD's "ba."
    // wrapper, and merge (counters add, histograms add buckets).
    sim::MetricsSnapshot fleet;
    for (const auto &[path, value] : snap.rows) {
        const std::size_t dot = path.find('.');
        if (path.rfind(rigPrefix, 0) != 0 || dot == std::string::npos)
            continue;
        std::string layer = path.substr(dot + 1);
        if (layer.rfind("ba.", 0) == 0)
            layer = layer.substr(3);
        sim::MetricsSnapshot one;
        one.rows.emplace(layer, value);
        fleet.merge(one);
    }

    out["wal.bytes_appended"] = rowValue(fleet, "wal.bytes_appended");
    out["wal.half_switches"] = rowValue(fleet, "wal.half_switches");
    out["pcie.posted_bursts"] = rowValue(fleet, "ssd.pcie.posted_bursts");
    out["pcie.non_posted_reads"] =
        rowValue(fleet, "ssd.pcie.non_posted_reads");
    out["wc.capacity_evictions"] =
        rowValue(fleet, "wc.capacity_evictions");
    out["ssd.writes"] = rowValue(fleet, "ssd.writes");
    out["ssd.flushes"] = rowValue(fleet, "ssd.flushes");
    out["ssd.write_lat_p99_us"] = rowP99Us(fleet, "ssd.write_lat");
    const double hits = rowValue(fleet, "ssd.dram.hits");
    const double lookups = hits + rowValue(fleet, "ssd.dram.misses");
    out["ssd.dram.hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
    const double hostPages = rowValue(fleet, "ssd.ftl.host_pages");
    out["ftl.waf"] = hostPages > 0.0
                         ? rowValue(fleet, "ssd.ftl.nand_pages") / hostPages
                         : 0.0;
    const sim::MetricValue *pause = fleet.find("ssd.ftl.gc.pause");
    out["ftl.gc.pause_count"] =
        pause ? static_cast<double>(pause->count) : 0.0;
    out["ftl.gc.pause_p99_us"] = rowP99Us(fleet, "ssd.ftl.gc.pause");
    out["ftl.gc.pages_moved"] = rowValue(fleet, "ssd.ftl.gc.pages_moved");
    out["nand.pages_programmed"] =
        rowValue(fleet, "ssd.nand.pages_programmed");
    out["nand.blocks_erased"] = rowValue(fleet, "ssd.nand.blocks_erased");
    out["nand.chan.busy_ticks"] =
        rowValue(fleet, "ssd.nand.chan.busy_ticks");
}

} // namespace bssd::perfbench

int
main(int argc, char **argv)
{
    try {
        return bssd::perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
