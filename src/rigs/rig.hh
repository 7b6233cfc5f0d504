/**
 * @file
 * The rig library: one WAL rig construction for the cluster, the
 * benches, the tools and the tests.
 *
 * One log device plus everything backing it, built identically
 * everywhere: every cluster shard, the crash matrix, the
 * fault-injection campaign, the crash_campaign tool and the
 * application benches all construct rigs through this header, so a
 * repro line printed by any of them can be replayed by all of them.
 * Each rig is fully self-contained (own device, own event queue, own
 * RNG streams), which is what lets the sweep harness run rigs on
 * concurrent worker threads and the cluster run shards in parallel
 * domains with bit-identical results.
 */

#ifndef BSSD_RIGS_RIG_HH
#define BSSD_RIGS_RIG_HH

#include <cstdint>
#include <memory>
#include <string>

#include "ba/two_b_ssd.hh"
#include "host/host_memory.hh"
#include "sim/fault.hh"
#include "ssd/ssd_device.hh"
#include "wal/async_wal.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"
#include "wal/pm_wal.hh"
#include "wal/pmr_wal.hh"
#include "wal/replicated_wal.hh"

namespace bssd::rigs
{

/** Every WAL implementation a rig can host. */
enum class WalKind
{
    block,    ///< page-aligned block WAL with fsync
    ba,       ///< 2B-SSD BA-WAL, double-buffered halves
    baSingle, ///< 2B-SSD BA-WAL, single buffer
    baRepl,   ///< BA-WAL replicated to a follower 2B-SSD
    pm,       ///< host persistent memory + block destage
    pmr,      ///< PMR window + host destage
    async,    ///< no durability (baseline)
    /** baRepl with single-buffered halves on both sides. Appended
     *  rather than grouped with baRepl: parameterized test names
     *  print these values. */
    baReplSingle,
};

inline const char *
walName(WalKind k)
{
    switch (k) {
      case WalKind::block: return "block";
      case WalKind::ba: return "ba";
      case WalKind::baSingle: return "ba_single";
      case WalKind::baRepl: return "ba_repl";
      case WalKind::pm: return "pm";
      case WalKind::pmr: return "pmr";
      case WalKind::async: return "async";
      case WalKind::baReplSingle: return "ba_repl_single";
    }
    return "?";
}

/** How to build one rig. Zero-valued sizes mean "the WAL's default". */
struct RigSpec
{
    WalKind wal = WalKind::block;

    /** Which block-device preset backs the rig. */
    enum class Device { tiny, dc, ull } device = Device::tiny;

    /** WAL region size (block/ba/pm/pmr). 0 = WAL default. */
    std::uint64_t regionBytes = 0;
    /** Half/window size for half-based WALs. 0 = WAL default. */
    std::uint64_t halfBytes = 0;
    /** BA-buffer capacity for 2B-SSD rigs. 0 = BaConfig default. */
    std::uint64_t baBufferBytes = 0;

    /** Blocks per die override (0 = preset default). Shrinking the
     *  array is how GC-focused rigs make a short op stream churn the
     *  free pool. */
    std::uint32_t blocksPerDie = 0;
    /** Enable incremental background GC plus the die-scheduler knobs
     *  (read priority, erase suspend) on the rig's device. */
    bool backgroundGc = false;
    /** Pages relocated per background GC step (0 = FTL default).
     *  Setting this below pagesPerBlock leaves victims partially
     *  relocated between steps - the state mid-relocation crash points
     *  need to exist. */
    std::uint32_t gcStepPages = 0;
};

/** A log device plus everything backing it, kept alive together. */
struct Rig
{
    std::unique_ptr<ssd::SsdDevice> blockDev;
    std::unique_ptr<ba::TwoBSsd> twoB;
    /** Follower 2B-SSD of a replicated rig (WalKind::baRepl only). */
    std::unique_ptr<ba::TwoBSsd> followerTwoB;
    std::unique_ptr<host::PersistentMemory> pm;
    std::unique_ptr<wal::LogDevice> log;

    /** The log as a ReplicatedWal (the baRepl kinds), else null. */
    wal::ReplicatedWal *
    repl() const
    {
        return dynamic_cast<wal::ReplicatedWal *>(log.get());
    }

    /** The device SSTs/manifest live on (for minirocks). */
    ssd::SsdDevice &
    dataDevice() const
    {
        return twoB ? twoB->device() : *blockDev;
    }

    /** The simulation domain the rig's primary device lives in. The
     *  follower's domain of a replicated rig is never scheduled: the
     *  ReplicatedWal models the link inside the primary's domain. */
    sim::Domain &
    domain() const
    {
        return twoB ? twoB->domain() : blockDev->domain();
    }

    /** Simulation events fired by the rig's device (0 if none). */
    std::uint64_t
    eventsFired() const
    {
        std::uint64_t n = twoB ? twoB->events().totalFired() : 0;
        if (followerTwoB)
            n += followerTwoB->events().totalFired();
        return n;
    }

    /**
     * Install a fault injector into every layer this rig owns. Call
     * AFTER construction so setup-time activity (half pinning, region
     * truncation) is not counted as op-stream tracepoint hits.
     */
    void
    installFaultInjector(sim::FaultInjector *f)
    {
        if (twoB)
            twoB->installFaultInjector(f);
        if (blockDev)
            blockDev->setFaultInjector(f);
        if (pm)
            pm->setFaultInjector(f);
        // Replicated rigs: the injector covers the PRIMARY side plus
        // the ship/ack edges. The follower device deliberately gets no
        // injector - power cuts model losing the primary, and the
        // follower must stay healthy enough to be promoted.
        if (wal::ReplicatedWal *r = repl())
            r->setFaultInjector(f);
    }

    /**
     * Install a tracer into every layer this rig owns (same cascade
     * and same call-after-construction advice as the fault injector;
     * setup-time spans would otherwise pollute the op-stream trace).
     */
    void
    installTracer(sim::Tracer *t)
    {
        if (twoB)
            twoB->installTracer(t);
        if (followerTwoB)
            followerTwoB->installTracer(t);
        if (blockDev)
            blockDev->setTracer(t);
        if (pm)
            pm->setTracer(t);
        if (log)
            log->setTracer(t);
    }

    /**
     * Attach every statistic this rig owns to @p reg. The device
     * stack lands under "<prefix>.ba" / "<prefix>.ssd" and the log
     * under "<prefix>.wal".
     */
    void
    registerMetrics(sim::MetricRegistry &reg,
                    const std::string &prefix = "rig") const
    {
        if (twoB)
            twoB->registerMetrics(reg, prefix + ".ba");
        if (followerTwoB)
            followerTwoB->registerMetrics(reg, prefix + ".follower_ba");
        if (blockDev)
            blockDev->registerMetrics(reg, prefix + ".ssd");
        if (log)
            log->registerMetrics(reg, prefix + ".wal");
    }
};

inline ssd::SsdConfig
deviceConfig(RigSpec::Device d)
{
    switch (d) {
      case RigSpec::Device::tiny: return ssd::SsdConfig::tiny();
      case RigSpec::Device::dc: return ssd::SsdConfig::dcSsd();
      case RigSpec::Device::ull: return ssd::SsdConfig::ullSsd();
    }
    return ssd::SsdConfig::tiny();
}

/** Device preset with the spec's geometry/GC overrides applied and,
 *  when @p name is non-empty, the device (and its domain) named it. */
inline ssd::SsdConfig
deviceConfig(const RigSpec &spec, const std::string &name = {})
{
    ssd::SsdConfig cfg = deviceConfig(spec.device);
    if (!name.empty())
        cfg.name = name;
    if (spec.blocksPerDie)
        cfg.nandCfg.geometry.blocksPerDie = spec.blocksPerDie;
    if (spec.backgroundGc) {
        cfg.ftlCfg.backgroundGc = true;
        cfg.nandCfg.sched.readPriority = true;
        cfg.nandCfg.sched.eraseSuspend = true;
    }
    if (spec.gcStepPages)
        cfg.ftlCfg.gcStepPages = spec.gcStepPages;
    return cfg;
}

/**
 * Build one rig from a spec. A non-empty @p deviceName names the
 * primary device (the name fatal and panic text carry) and
 * "<deviceName>.follower" the follower of a replicated rig; empty
 * keeps the preset's name for both.
 */
inline Rig
makeRig(const RigSpec &spec, const std::string &deviceName = {})
{
    const ssd::SsdConfig dev = deviceConfig(spec, deviceName);
    Rig rig;
    switch (spec.wal) {
      case WalKind::block: {
        rig.blockDev = std::make_unique<ssd::SsdDevice>(dev);
        wal::BlockWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        rig.log = std::make_unique<wal::BlockWal>(*rig.blockDev, cfg);
        break;
      }
      case WalKind::ba:
      case WalKind::baSingle: {
        ba::BaConfig bc;
        if (spec.baBufferBytes)
            bc.bufferBytes = spec.baBufferBytes;
        rig.twoB = std::make_unique<ba::TwoBSsd>(dev, bc);
        wal::BaWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        if (spec.halfBytes)
            cfg.halfBytes = spec.halfBytes;
        cfg.doubleBuffer = spec.wal == WalKind::ba;
        rig.log = std::make_unique<wal::BaWal>(*rig.twoB, cfg);
        break;
      }
      case WalKind::baRepl:
      case WalKind::baReplSingle: {
        ba::BaConfig bc;
        if (spec.baBufferBytes)
            bc.bufferBytes = spec.baBufferBytes;
        rig.twoB = std::make_unique<ba::TwoBSsd>(dev, bc);
        rig.followerTwoB = std::make_unique<ba::TwoBSsd>(
            deviceConfig(spec, deviceName.empty()
                                   ? deviceName
                                   : deviceName + ".follower"),
            bc);
        wal::BaWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        if (spec.halfBytes)
            cfg.halfBytes = spec.halfBytes;
        cfg.doubleBuffer = spec.wal == WalKind::baRepl;
        rig.log = std::make_unique<wal::ReplicatedWal>(
            std::make_unique<wal::BaWal>(*rig.twoB, cfg),
            std::make_unique<wal::BaWal>(*rig.followerTwoB, cfg));
        break;
      }
      case WalKind::pm: {
        rig.blockDev = std::make_unique<ssd::SsdDevice>(dev);
        rig.pm = std::make_unique<host::PersistentMemory>();
        wal::PmWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        if (spec.halfBytes)
            cfg.halfBytes = spec.halfBytes;
        rig.log = std::make_unique<wal::PmWal>(*rig.pm, *rig.blockDev,
                                               cfg);
        break;
      }
      case WalKind::pmr: {
        ba::BaConfig bc;
        if (spec.baBufferBytes)
            bc.bufferBytes = spec.baBufferBytes;
        rig.twoB = std::make_unique<ba::TwoBSsd>(dev, bc);
        wal::PmrWalConfig cfg;
        if (spec.regionBytes)
            cfg.regionBytes = spec.regionBytes;
        if (spec.halfBytes)
            cfg.halfBytes = spec.halfBytes;
        rig.log = std::make_unique<wal::PmrWal>(*rig.twoB, cfg);
        break;
      }
      case WalKind::async:
        rig.blockDev = std::make_unique<ssd::SsdDevice>(dev);
        rig.log = std::make_unique<wal::AsyncWal>();
        break;
    }
    return rig;
}

/** The crash-matrix preset: tiny device, 1 MiB region, 32 KiB halves,
 *  128 KiB BA-buffer. Small enough that half switches and destage
 *  paths are exercised by a ~100-op stream. */
inline RigSpec
tinySpec(WalKind k)
{
    RigSpec s;
    s.wal = k;
    s.device = RigSpec::Device::tiny;
    s.regionBytes = sim::MiB;
    s.halfBytes = 32 * sim::KiB;
    s.baBufferBytes = 128 * sim::KiB;
    return s;
}

inline Rig
makeTinyRig(WalKind k)
{
    return makeRig(tinySpec(k));
}

/**
 * The GC-campaign preset: the tiny rig shrunk to 6 blocks per die
 * (24 blocks, 83 logical pages) with background GC and the scheduler
 * knobs on, so a ~2000-op stream wraps the WAL region dozens of times
 * and keeps the incremental GC engine (ftl.gcStep / ftl.gcErase
 * tracepoints) continuously active. The default tiny crash rigs stay
 * foreground-GC: their enumerated hit sequences are a compatibility
 * surface.
 */
inline RigSpec
gcSpec(WalKind k)
{
    RigSpec s = tinySpec(k);
    s.regionBytes = 128 * sim::KiB;
    s.halfBytes = 16 * sim::KiB;
    s.baBufferBytes = 64 * sim::KiB;
    s.blocksPerDie = 6;
    s.backgroundGc = true;
    // 3 < pagesPerBlock (8): victims stay partially relocated across
    // steps, so enumerated ftl.gcStep cuts land mid-relocation.
    s.gcStepPages = 3;
    return s;
}

/**
 * One-line repro for a failing (engine, wal, seed[, crash point])
 * cell, replayable via the crash_campaign tool.
 */
inline std::string
reproLine(const std::string &engine, WalKind wal, std::uint64_t seed,
          std::int64_t crashPoint = -1)
{
    std::string s = "repro: crash_campaign --engine=" + engine +
                    " --wal=" + walName(wal) +
                    " --seed=" + std::to_string(seed);
    if (crashPoint >= 0)
        s += " --point=" + std::to_string(crashPoint);
    return s;
}

} // namespace bssd::rigs

#endif // BSSD_RIGS_RIG_HH
