/**
 * @file
 * End-to-end I/O-path latency decomposition (DESIGN.md section 9).
 *
 * Runs an identical 4 KB random read/write stream against the three
 * device presets (DC-SSD, ULL-SSD, 2B-SSD block path) with the tracer
 * attached, then prints the per-phase latency breakdown each preset's
 * trace aggregates to - where do a block request's microseconds go:
 * frontend, transfer, buffer admission, FTL wait, media?
 *
 * The per-preset breakdowns are written to BENCH_iopath.json (the
 * checked-in baseline lives in baselines/); --trace / --metrics
 * additionally dump the 2B-SSD preset's raw trace and full metrics
 * report.
 *
 * Usage: bench_iopath [--out=FILE] [--trace=FILE] [--metrics=FILE]
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "bench_util.hh"
#include "sim/report.hh"
#include "sim/trace.hh"
#include "ssd/ssd_device.hh"

using namespace bssd;
using namespace bssd::bench;

namespace
{

constexpr int kOps = 64;
constexpr std::uint64_t kOpBytes = 4096;

/** Scattered 4 KB-aligned offsets (same generator as bench_fig7). */
std::uint64_t
scatterOffset(int i)
{
    return 512 * sim::MiB + std::uint64_t((i * 7919) % 4096) * 64 * 4096;
}

struct PresetResult
{
    std::string name;
    std::vector<sim::Tracer::PhaseStat> phases;
    std::size_t traceEvents = 0;
};

/**
 * Drive the op stream against @p dev with @p tracer installed; the
 * caller seeds the device and attaches observability first. The gauge
 * sampler is pumped once per op on the simulated clock.
 */
void
runStream(ssd::SsdDevice &dev, sim::GaugeSampler &sampler)
{
    std::vector<std::uint8_t> buf(kOpBytes, 0x5a);
    std::vector<std::uint8_t> out(kOpBytes);
    sim::Tick t = sim::sOf(1);
    for (int i = 0; i < kOps; ++i) {
        dev.blockRead(t, scatterOffset(i), out);
        t += sim::msOf(1);
        dev.blockWrite(t, scatterOffset(i), buf);
        t += sim::msOf(1);
        sampler.sample(t);
    }
}

PresetResult
runPreset(const std::string &name, const ssd::SsdConfig &cfg)
{
    ssd::SsdDevice dev(cfg);

    // Seed every offset so reads hit programmed NAND pages.
    std::vector<std::uint8_t> pages(kOpBytes, 1);
    for (int i = 0; i < kOps; ++i)
        dev.blockWrite(0, scatterOffset(i), pages);

    sim::Tracer tracer;
    sim::MetricRegistry registry;
    dev.setTracer(&tracer);
    dev.registerMetrics(registry, name);
    sim::GaugeSampler sampler(registry, sim::msOf(2));

    runStream(dev, sampler);

    PresetResult res;
    res.name = name;
    res.phases = tracer.phaseBreakdown();
    res.traceEvents = tracer.events().size();
    return res;
}

void
printBreakdown(const PresetResult &res)
{
    section(res.name + " per-phase breakdown [us]");
    std::printf("%-8s %-12s %6s %10s %10s %10s\n", "cat", "phase",
                "count", "mean", "p50", "p99");
    for (const auto &p : res.phases) {
        double mean = p.count ? static_cast<double>(p.totalTicks) /
                                    static_cast<double>(p.count) / 1000.0
                              : 0.0;
        std::printf("%-8s %-12s %6llu %10.3f %10.3f %10.3f\n",
                    p.cat.c_str(), p.name.c_str(),
                    static_cast<unsigned long long>(p.count), mean,
                    static_cast<double>(p.p50) / 1000.0,
                    static_cast<double>(p.p99) / 1000.0);
    }
}

void
writeJson(std::ostream &os, const std::vector<PresetResult> &presets)
{
    os << "{\n  \"bench\": \"bench_iopath\",\n"
       << "  \"op_bytes\": " << kOpBytes << ",\n"
       << "  \"ops_per_preset\": " << kOps * 2 << ",\n"
       << "  \"presets\": {";
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const auto &r = presets[i];
        os << (i ? ",\n" : "\n") << "    \"" << r.name
           << "\": {\"phases\": [";
        for (std::size_t j = 0; j < r.phases.size(); ++j) {
            const auto &p = r.phases[j];
            os << (j ? ",\n" : "\n") << "      {\"cat\": \"" << p.cat
               << "\", \"name\": \"" << p.name
               << "\", \"count\": " << p.count
               << ", \"mean_ticks\": "
               << (p.count ? static_cast<double>(p.totalTicks) /
                                 static_cast<double>(p.count)
                           : 0.0)
               << ", \"p50_ticks\": " << p.p50
               << ", \"p99_ticks\": " << p.p99 << "}";
        }
        os << (r.phases.empty() ? "]}" : "\n    ]}");
    }
    os << "\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    banner("iopath", "per-phase latency decomposition "
                     "(4KB, DC / ULL / 2B-SSD block path)");

    std::string outPath = stringArg(argc, argv, "--out");
    if (outPath.empty())
        outPath = "BENCH_iopath.json";
    const std::string tracePath = stringArg(argc, argv, "--trace");
    const std::string metricsPath = stringArg(argc, argv, "--metrics");

    std::vector<PresetResult> presets;
    presets.push_back(runPreset("dc", ssd::SsdConfig::dcSsd()));
    presets.push_back(runPreset("ull", ssd::SsdConfig::ullSsd()));
    // The 2B-SSD piggybacks on the ULL block path (the paper measures
    // identical block latencies); trace/metrics dumps come from this
    // preset.
    {
        ba::TwoBSsd twoB;
        std::vector<std::uint8_t> pages(kOpBytes, 1);
        for (int i = 0; i < kOps; ++i)
            twoB.blockWrite(0, scatterOffset(i), pages);

        sim::Tracer tracer;
        sim::MetricRegistry registry;
        twoB.installTracer(&tracer);
        twoB.registerMetrics(registry, "twob");
        sim::GaugeSampler sampler(registry, sim::msOf(2));
        runStream(twoB.device(), sampler);

        PresetResult res;
        res.name = "twob";
        res.phases = tracer.phaseBreakdown();
        res.traceEvents = tracer.events().size();
        if (!tracePath.empty()) {
            std::ofstream os(tracePath);
            tracer.writeChromeJson(os);
            std::printf("wrote trace: %s (%zu events, twob preset)\n",
                        tracePath.c_str(), res.traceEvents);
        }
        if (!metricsPath.empty()) {
            sim::RunReport rep;
            rep.bench = "bench_iopath";
            rep.config = "twob, 64x 4KB random read+write";
            rep.metrics = registry.snapshot();
            rep.phases = res.phases;
            rep.series = &sampler.table();
            std::ofstream os(metricsPath);
            rep.writeJson(os);
            std::printf("wrote metrics report: %s\n",
                        metricsPath.c_str());
        }
        presets.push_back(std::move(res));
    }

    for (const auto &r : presets)
        printBreakdown(r);

    std::ofstream os(outPath);
    writeJson(os, presets);
    std::printf("\nwrote %s\n", outPath.c_str());
    return 0;
}
