/**
 * @file
 * Tail-latency experiments.
 *
 * Part 1 (Section IV-A: BA-WAL "optimizes both tail latencies and SSD
 * lifespan"): sustained single-threaded commits on each log device;
 * reports the mean / p99 / max commit latency. The conventional WAL's
 * tail comes from write+fsync queueing; BA-WAL's only outliers are the
 * (double-buffered, hence rare and tiny) half switches.
 *
 * Part 2 (DESIGN.md section 10): foreground vs background GC ablation.
 * A write-through SSD is driven with sustained random 4 KiB
 * overwrites until garbage collection dominates; the foreground cell
 * stalls the triggering write for a whole multi-block GC episode while
 * the background cell amortizes the same reclamation into
 * rate-controlled steps, which is where the p99/p99.9 gap comes from.
 * Deterministic (fixed seed, no wall clock): the JSON emitted via
 * --out is byte-stable and diffed against
 * baselines/BENCH_tail_latency.json by CI on every change. --check
 * exits non-zero unless background GC beats foreground at p99.9.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "bench_util.hh"
#include "host/host_memory.hh"
#include "ssd/ssd_device.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"
#include "wal/pm_wal.hh"
#include "wal/record.hh"

using namespace bssd;
using namespace bssd::bench;

namespace
{

constexpr int kOps = 30000;
constexpr std::size_t kPayload = 300;

void
measure(const char *name, wal::LogDevice &wal)
{
    sim::Histogram lat("commit");
    std::vector<std::uint8_t> p(kPayload, 0x7a);
    sim::Tick t = sim::msOf(10);
    for (int i = 0; i < kOps; ++i) {
        auto frame = wal::frameRecord(static_cast<std::uint64_t>(i), p);
        sim::Tick t0 = t;
        t = wal.append(t, frame);
        t = wal.commit(t);
        lat.record(t - t0);
    }
    std::printf("%-12s %10.2f %10.2f %10.2f\n", name, lat.mean() / 1e3,
                static_cast<double>(lat.percentile(99)) / 1e3,
                static_cast<double>(lat.max()) / 1e3);
}

/** @name Foreground-vs-background GC ablation @{ */

constexpr int kGcOps = 30000;
/** Hot span of logical pages the overwrites cycle through. */
constexpr std::uint64_t kGcSpanPages = 2000;
/** Host think time between writes (lets idle catch-up steps run). */
constexpr sim::Tick kGcThink = sim::usOf(2);

ssd::SsdConfig
gcAblationConfig(bool background)
{
    // ULL-class timing on a deliberately small array (4 dies x 64
    // blocks x 32 pages) so 30k overwrites push the FTL through many
    // full GC cycles in milliseconds of simulated time.
    ssd::SsdConfig cfg = ssd::SsdConfig::ullSsd();
    cfg.name = background ? "bg-gc" : "fg-gc";
    cfg.nandCfg.geometry = nand::NandGeometry{2, 2, 64, 32, 4096};
    cfg.readAhead = false;
    // FUA-style completion: the host observes the destage (and any GC
    // stall charged to it) instead of just the buffer admission.
    cfg.writeThrough = true;
    cfg.writeBufferBytes = 2 * sim::MiB;
    cfg.ftlCfg.gcLowWaterBlocks = 4;
    cfg.ftlCfg.gcHighWaterBlocks = 12;
    cfg.ftlCfg.backgroundGc = background;
    cfg.nandCfg.sched.readPriority = background;
    cfg.nandCfg.sched.eraseSuspend = background;
    return cfg;
}

struct GcCell
{
    sim::Histogram lat{"write"};
    std::uint64_t gcSteps = 0;
    std::uint64_t gcPauses = 0;
    double waf = 0.0;
};

GcCell
runGcCell(bool background)
{
    ssd::SsdDevice dev(gcAblationConfig(background));
    GcCell cell;
    sim::Rng rng(0x6c0ffee);
    std::vector<std::uint8_t> page(4096);
    sim::Tick t = sim::msOf(1);
    for (int i = 0; i < kGcOps; ++i) {
        std::uint64_t lpn = rng.nextBelow(kGcSpanPages);
        std::memset(page.data(), static_cast<int>(i & 0xff), page.size());
        auto iv = dev.blockWrite(t, lpn * 4096, page);
        cell.lat.record(iv.end - t);
        t = iv.end + kGcThink;
    }
    cell.gcSteps = dev.ftl().gcBackgroundSteps();
    cell.gcPauses = dev.ftl().gcPauses().count();
    cell.waf = dev.ftl().waf();
    return cell;
}

void
printGcRow(const char *name, const GcCell &c)
{
    std::printf("%-12s %10.2f %10.2f %12.2f %10.2f %9llu %9llu %6.2f\n",
                name, c.lat.mean() / 1e3,
                static_cast<double>(c.lat.percentile(99)) / 1e3,
                static_cast<double>(c.lat.percentile(99.9)) / 1e3,
                static_cast<double>(c.lat.max()) / 1e3,
                static_cast<unsigned long long>(c.gcSteps),
                static_cast<unsigned long long>(c.gcPauses), c.waf);
}

void
writeGcJson(std::ostream &os, const GcCell &fg, const GcCell &bg)
{
    auto cell = [&](const char *name, const GcCell &c, const char *sep) {
        os << "    \"" << name << "\": {"
           << "\"ops\": " << kGcOps
           << ", \"mean_ticks\": "
           << static_cast<std::uint64_t>(c.lat.mean())
           << ", \"p99_ticks\": " << c.lat.percentile(99)
           << ", \"p999_ticks\": " << c.lat.percentile(99.9)
           << ", \"max_ticks\": " << c.lat.max()
           << ", \"gc_steps\": " << c.gcSteps
           << ", \"gc_pauses\": " << c.gcPauses << "}" << sep << "\n";
    };
    const double ratio =
        static_cast<double>(bg.lat.percentile(99.9)) /
        static_cast<double>(fg.lat.percentile(99.9));
    char ratio_s[32];
    std::snprintf(ratio_s, sizeof(ratio_s), "%.4f", ratio);
    os << "{\n"
       << "  \"bench\": \"bench_tail_latency\",\n"
       << "  \"gc_ablation\": {\n";
    cell("foreground", fg, ",");
    cell("background", bg, ",");
    os << "    \"p999_bg_over_fg\": " << ratio_s << "\n"
       << "  }\n"
       << "}\n";
}

/**
 * Record a shorter background-GC run with the tracer installed, so
 * `trace_dump --breakdown FILE` shows ftl.gc_step relocate/erase
 * phases interleaved with the host write spans, and
 * `trace_dump --validate FILE` reconciles them.
 */
void
traceGcCell(const std::string &path)
{
    ssd::SsdDevice dev(gcAblationConfig(true));
    sim::Rng rng(0x6c0ffee);
    std::vector<std::uint8_t> page(4096);
    sim::Tick t = sim::msOf(1);
    // Untraced prefill: burn through the free pool so the traced
    // window starts with garbage collection already active.
    for (int i = 0;
         dev.ftl().freeBlocks() >
             gcAblationConfig(true).ftlCfg.gcHighWaterBlocks &&
         i < 20000;
         ++i) {
        std::uint64_t lpn = rng.nextBelow(kGcSpanPages);
        auto iv = dev.blockWrite(t, lpn * 4096, page);
        t = iv.end + kGcThink;
    }
    sim::Tracer tracer;
    dev.setTracer(&tracer);
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t lpn = rng.nextBelow(kGcSpanPages);
        std::memset(page.data(), static_cast<int>(i & 0xff), page.size());
        auto iv = dev.blockWrite(t, lpn * 4096, page);
        t = iv.end + kGcThink;
    }
    std::ofstream os(path);
    tracer.writeChromeJson(os);
    std::printf("wrote %s (%zu events)\n", path.c_str(),
                tracer.events().size());
}

/** @} */

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--check")
            check = true;
    const std::string out = stringArg(argc, argv, "--out");

    banner("Tail latency",
           "sustained commit latency: mean / p99 / max [us]");
    std::printf("%-12s %10s %10s %10s\n", "config", "mean", "p99",
                "max");

    {
        ssd::SsdDevice dev(ssd::SsdConfig::dcSsd());
        wal::BlockWal wal(dev, {});
        measure("DC-SSD", wal);
    }
    {
        ssd::SsdDevice dev(ssd::SsdConfig::ullSsd());
        wal::BlockWal wal(dev, {});
        measure("ULL-SSD", wal);
    }
    {
        ba::TwoBSsd dev;
        wal::BaWalConfig cfg;
        cfg.regionBytes = 512 * sim::MiB;
        wal::BaWal wal(dev, cfg);
        measure("2B-SSD", wal);
    }
    {
        ba::TwoBSsd dev;
        wal::BaWalConfig cfg;
        cfg.regionBytes = 512 * sim::MiB;
        cfg.doubleBuffer = false;
        wal::BaWal wal(dev, cfg);
        measure("2B-single", wal);
    }
    {
        host::PersistentMemory pm;
        ssd::SsdDevice dev(ssd::SsdConfig::ullSsd());
        wal::PmWalConfig cfg;
        cfg.regionBytes = 512 * sim::MiB;
        wal::PmWal wal(pm, dev, cfg);
        measure("PM+ULL", wal);
    }

    std::printf("\npaper: a single NAND write per log page optimizes "
                "tail latencies (and WAF);\ndouble buffering keeps the "
                "p99/max tail flat where the single window spikes\n"
                "on every BA_FLUSH + re-pin.\n");

    section("GC ablation: foreground vs background "
            "(write-through random 4K overwrites) [us]");
    std::printf("%-12s %10s %10s %12s %10s %9s %9s %6s\n", "gc mode",
                "mean", "p99", "p99.9", "max", "gc_steps", "fg_gcs",
                "waf");
    GcCell fg = runGcCell(false);
    GcCell bg = runGcCell(true);
    printGcRow("foreground", fg);
    printGcRow("background", bg);
    std::printf("\nbackground GC relocates in %u-page steps between "
                "host writes, so a write never\nabsorbs a whole "
                "multi-block episode; the foreground tail is the full "
                "reclaim stall.\n",
                gcAblationConfig(true).ftlCfg.gcStepPages);

    if (!out.empty()) {
        std::ofstream os(out);
        writeGcJson(os, fg, bg);
        std::printf("wrote %s\n", out.c_str());
    }
    const std::string trace = stringArg(argc, argv, "--trace");
    if (!trace.empty())
        traceGcCell(trace);
    if (check) {
        if (bg.lat.percentile(99.9) >= fg.lat.percentile(99.9)) {
            std::fprintf(stderr,
                         "FAIL: background GC p99.9 (%llu) not below "
                         "foreground (%llu)\n",
                         static_cast<unsigned long long>(
                             bg.lat.percentile(99.9)),
                         static_cast<unsigned long long>(
                             fg.lat.percentile(99.9)));
            return 1;
        }
        std::printf("check: background p99.9 < foreground p99.9 OK\n");
    }
    return 0;
}
