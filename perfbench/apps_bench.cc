/**
 * @file
 * apps-wal: the Fig. 9 grid. minipg + Linkbench, and minirocks and
 * miniredis under YCSB-A at 16 B, 128 B and 1 KB, each on DC-SSD,
 * ULL-SSD, 2B-SSD and ASYNC: 28 closed-loop single-rig cells run
 * serially. The rigs are built from src/ public headers with the
 * same shapes as bench_fig9_apps, so seed 1 reproduces its table.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "db/minirocks/minirocks.hh"
#include "perfbench.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"
#include "ssd/ssd_device.hh"
#include "support/stopwatch.hh"
#include "wal/async_wal.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"
#include "workload/runner.hh"

namespace bssd::perfbench
{

namespace
{

using bench::Stopwatch;

constexpr unsigned kClients = 8;
constexpr sim::Tick kHorizon = sim::msOf(300);
/** The smoke test's horizon. */
constexpr sim::Tick kQuickHorizon = sim::msOf(30);
constexpr std::uint64_t kRecords = 2000;
constexpr std::uint64_t kLinkbenchNodes = 50'000;
/** Seed 1 maps to bench_fig9_apps' seed (ISCA'18). */
constexpr std::uint64_t kFig9Seed = 20180601;

/** @name The paper's Fig. 9 bands (EXPERIMENTS.md) @{ */
constexpr double kDcBandLo = 1.2;
constexpr double kDcBandHi = 2.8;
constexpr double kUllBandLo = 1.15;
constexpr double kUllBandHi = 2.3;
/** @} */

const char *
storeName(AppsStore s)
{
    switch (s) {
      case AppsStore::pg: return "pg";
      case AppsStore::rocks: return "rocks";
      case AppsStore::redis: return "redis";
    }
    return "?";
}

const char *
rigName(AppsRig r)
{
    switch (r) {
      case AppsRig::dc: return "dc";
      case AppsRig::ull: return "ull";
      case AppsRig::twoB: return "2b";
      case AppsRig::async: return "async";
    }
    return "?";
}

/**
 * A log device plus everything backing it. Members are torn down in
 * reverse order, so the log goes before the device it writes to.
 */
struct LogRig
{
    std::unique_ptr<ssd::SsdDevice> blockDev;
    std::unique_ptr<ba::TwoBSsd> twoB;
    std::unique_ptr<wal::LogDevice> log;

    /** The device SSTs and the manifest live on (minirocks). */
    ssd::SsdDevice &
    dataDevice()
    {
        return twoB ? twoB->device() : *blockDev;
    }

    void
    registerMetrics(sim::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        if (twoB)
            twoB->registerMetrics(reg, prefix + ".ba");
        if (blockDev)
            blockDev->registerMetrics(reg, prefix + ".ssd");
        log->registerMetrics(reg, prefix + ".wal");
    }
};

/**
 * DC and ULL run a block WAL with fsync on their preset; 2B runs a
 * BA-WAL on a 2B-SSD over the ULL preset; ASYNC never waits for the
 * log. @p baWalHalf is the BA-WAL window (0 = the WAL's default).
 */
LogRig
makeRig(AppsRig kind, std::uint64_t baWalHalf, bool doubleBuffer)
{
    LogRig rig;
    switch (kind) {
      case AppsRig::dc:
      case AppsRig::ull:
        rig.blockDev = std::make_unique<ssd::SsdDevice>(
            kind == AppsRig::dc ? ssd::SsdConfig::dcSsd()
                                : ssd::SsdConfig::ullSsd());
        rig.log = std::make_unique<wal::BlockWal>(*rig.blockDev);
        break;
      case AppsRig::twoB: {
        rig.twoB = std::make_unique<ba::TwoBSsd>(ssd::SsdConfig::ullSsd());
        wal::BaWalConfig cfg;
        if (baWalHalf)
            cfg.halfBytes = baWalHalf;
        cfg.doubleBuffer = doubleBuffer;
        rig.log = std::make_unique<wal::BaWal>(*rig.twoB, cfg);
        break;
      }
      case AppsRig::async:
        rig.blockDev =
            std::make_unique<ssd::SsdDevice>(ssd::SsdConfig::ullSsd());
        rig.log = std::make_unique<wal::AsyncWal>();
        break;
    }
    return rig;
}

struct CellRun
{
    workload::RunResult res;
    /** Rig build + store construction + load. */
    double setupS = 0.0;
    double runS = 0.0;
};

/** Fold the cell's rig rows into @p layers under "rig.". */
void
collectLayers(const LogRig &rig, sim::MetricsSnapshot *layers)
{
    if (!layers)
        return;
    sim::MetricRegistry reg;
    rig.registerMetrics(reg, "rig");
    layers->merge(reg.snapshot());
}

CellRun
runCell(const AppsCell &cell, std::uint64_t seed, sim::Tick horizon,
        sim::MetricsSnapshot *layers)
{
    CellRun run;
    Stopwatch sw;
    switch (cell.store) {
      case AppsStore::pg: {
        // Half-buffer BA-WAL windows, double-buffered.
        LogRig rig = makeRig(cell.rig, 4 * sim::MiB, true);
        db::minipg::MiniPg pg(*rig.log);
        workload::LinkbenchConfig cfg;
        cfg.nodeCount = kLinkbenchNodes;
        run.setupS = sw.sec();
        sw.restart();
        run.res = workload::runLinkbenchOnPg(pg, cfg, kClients, horizon,
                                             seed);
        run.runS = sw.sec();
        collectLayers(rig, layers);
        break;
      }
      case AppsStore::rocks: {
        // Quarter-buffer windows, double-buffered.
        LogRig rig = makeRig(cell.rig, 2 * sim::MiB, true);
        db::minirocks::MiniRocks db(*rig.log, rig.dataDevice());
        workload::YcsbConfig cfg = workload::ycsbWorkloadA(cell.payload);
        cfg.recordCount = kRecords;
        const sim::Tick loaded =
            workload::loadRocks(db, cfg, cfg.recordCount);
        run.setupS = sw.sec();
        sw.restart();
        run.res = workload::runYcsbOnRocks(db, cfg, kClients, horizon,
                                           seed, loaded);
        run.runS = sw.sec();
        collectLayers(rig, layers);
        break;
      }
      case AppsStore::redis: {
        // Single-threaded engine: whole buffer, no double buffering.
        LogRig rig = makeRig(cell.rig, 0, false);
        db::miniredis::MiniRedis db(*rig.log);
        workload::YcsbConfig cfg = workload::ycsbWorkloadA(cell.payload);
        cfg.recordCount = kRecords;
        const sim::Tick loaded =
            workload::loadRedis(db, cfg, cfg.recordCount);
        run.setupS = sw.sec();
        sw.restart();
        run.res =
            workload::runYcsbOnRedis(db, cfg, horizon, seed, loaded);
        run.runS = sw.sec();
        collectLayers(rig, layers);
        break;
      }
    }
    return run;
}

/** One pass over all 28 cells. */
struct GridRun
{
    std::vector<CellRun> cells;
    double wallS = 0.0;
    double setupS = 0.0;
    /** Wall seconds in the run calls, indexed by AppsStore. */
    double runS[3] = {0.0, 0.0, 0.0};
};

GridRun
runGrid(const std::vector<AppsCell> &cells, std::uint64_t seed,
        sim::Tick horizon, sim::MetricsSnapshot *layers)
{
    GridRun grid;
    Stopwatch whole;
    for (const AppsCell &cell : cells) {
        grid.cells.push_back(runCell(cell, seed, horizon, layers));
        grid.setupS += grid.cells.back().setupS;
        grid.runS[static_cast<int>(cell.store)] += grid.cells.back().runS;
    }
    grid.wallS = whole.sec();
    return grid;
}

std::size_t
cellIndex(const std::vector<AppsCell> &cells, AppsStore store,
          std::uint32_t payload, AppsRig rig)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].store == store && cells[i].payload == payload &&
            cells[i].rig == rig)
            return i;
    }
    return cells.size();
}

/** A grid column: one store at one payload, across the four rigs. */
struct Column
{
    AppsStore store;
    std::uint32_t payload;
};

std::vector<Column>
columns(const std::vector<AppsCell> &cells)
{
    std::vector<Column> cols;
    for (const AppsCell &c : cells) {
        if (c.rig == AppsRig::dc)
            cols.push_back({c.store, c.payload});
    }
    return cols;
}

std::string
columnName(const Column &col)
{
    std::string s = storeName(col.store);
    if (col.payload) {
        s += ' ';
        s += std::to_string(col.payload);
        s += " B";
    }
    return s;
}

} // namespace

std::vector<AppsCell>
appsCells()
{
    constexpr AppsRig rigs[] = {AppsRig::dc, AppsRig::ull, AppsRig::twoB,
                                AppsRig::async};
    std::vector<AppsCell> cells;
    for (AppsRig r : rigs)
        cells.push_back({AppsStore::pg, r, 0});
    for (AppsStore s : {AppsStore::rocks, AppsStore::redis}) {
        for (std::uint32_t payload : {16u, 128u, 1024u}) {
            for (AppsRig r : rigs)
                cells.push_back({s, r, payload});
        }
    }
    return cells;
}

std::string
appsCellMetric(const AppsCell &cell)
{
    std::string s = std::string("apps.") + storeName(cell.store) + "." +
                    rigName(cell.rig);
    if (cell.payload) {
        s += '.';
        s += std::to_string(cell.payload);
    }
    s += ".ops_s";
    return s;
}

Outcome
runAppsWorkload(const Options &opt)
{
    Outcome out;
    const std::vector<AppsCell> cells = appsCells();
    const std::uint64_t seed = kFig9Seed + (opt.seed - 1);
    const sim::Tick horizon = opt.quick ? kQuickHorizon : kHorizon;

    std::vector<GridRun> grids;
    sim::MetricsSnapshot layers;
    if (opt.trace) {
        grids.push_back(runGrid(cells, seed, horizon, &layers));
    } else {
        // Repeat whole grids while another one still fits the budget.
        Stopwatch budget;
        do {
            grids.push_back(runGrid(cells, seed, horizon, nullptr));
        } while (budget.sec() + grids.back().wallS <= opt.seconds);
    }

    GridRun &g = grids.front();
    const std::vector<Column> cols = columns(cells);
    if (opt.corrupt == "band") {
        // Scaling 2B by the band's top pushes its 2B/DC past the band.
        const std::size_t i = cellIndex(cells, cols.front().store,
                                        cols.front().payload,
                                        AppsRig::twoB);
        g.cells[i].res.opsPerSec *= kDcBandHi;
    }

    // Every cell completes ops; every rep reproduces the first.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const workload::RunResult &r = g.cells[i].res;
        out.check(r.ops > 0, appsCellMetric(cells[i]) + ": no ops");
        out.attempted += r.ops;
        for (std::size_t k = 1; k < grids.size(); ++k) {
            const workload::RunResult &o = grids[k].cells[i].res;
            out.check(o.ops == r.ops && o.opsPerSec == r.opsPerSec,
                      appsCellMetric(cells[i]) + ": rep " +
                          std::to_string(k + 1) +
                          " differs from rep 1");
        }
    }

    // The paper's bands, per column.
    std::vector<double> vsDc;
    std::vector<double> vsUll;
    for (const Column &col : cols) {
        auto ops = [&](AppsRig rig) {
            return g.cells[cellIndex(cells, col.store, col.payload, rig)]
                .res.opsPerSec;
        };
        const double twoB = ops(AppsRig::twoB);
        const double dc = ops(AppsRig::dc) > 0 ? twoB / ops(AppsRig::dc)
                                                : 0.0;
        const double ull =
            ops(AppsRig::ull) > 0 ? twoB / ops(AppsRig::ull) : 0.0;
        vsDc.push_back(dc);
        vsUll.push_back(ull);
        out.check(dc >= kDcBandLo && dc <= kDcBandHi,
                  columnName(col) + ": 2B/DC " + std::to_string(dc) +
                      " outside the Fig. 9 band 1.2-2.8");
        out.check(ull >= kUllBandLo && ull <= kUllBandHi,
                  columnName(col) + ": 2B/ULL " + std::to_string(ull) +
                      " outside the Fig. 9 band 1.15-2.3");
    }
    if (!out.failures.empty())
        out.failed = out.attempted;

    std::vector<double> opsPerSec;
    std::vector<double> means;
    std::vector<double> p99s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const workload::RunResult &r = g.cells[i].res;
        opsPerSec.push_back(r.opsPerSec);
        means.push_back(r.meanLatencyUs);
        p99s.push_back(r.p99LatencyUs);
        std::printf("# %-27s ops/s %10.0f  mean %7.1f us  p99 %7.1f us\n",
                    appsCellMetric(cells[i]).c_str(), r.opsPerSec,
                    r.meanLatencyUs, r.p99LatencyUs);
    }

    if (opt.trace) {
        auto &m = out.metrics;
        m["trace.wall_s"] = g.wallS;
        m["apps.setup_s"] = g.setupS;
        m["apps.pg.run_s"] = g.runS[static_cast<int>(AppsStore::pg)];
        m["apps.rocks.run_s"] = g.runS[static_cast<int>(AppsStore::rocks)];
        m["apps.redis.run_s"] = g.runS[static_cast<int>(AppsStore::redis)];
        for (std::size_t i = 0; i < cells.size(); ++i)
            m[appsCellMetric(cells[i])] = g.cells[i].res.opsPerSec;
        m["apps.op_mean_us"] = geomean(means);
        m["apps.op_p99_us"] = geomean(p99s);
        m["apps.speedup_2b_dc"] = geomean(vsDc);
        m["apps.speedup_2b_ull"] = geomean(vsUll);
        addDeviceLayers(layers, "rig", m);
        return out;
    }

    std::vector<double> walls;
    std::vector<double> setups;
    std::printf("# grid wall s:");
    for (const GridRun &r : grids) {
        walls.push_back(r.wallS);
        setups.push_back(r.setupS);
        std::printf(" %.3f", r.wallS);
    }
    std::printf("\n");
    out.metrics["wall_s"] = median(walls);
    out.metrics["setup_s"] = median(setups);
    out.metrics["sim_ops_per_s"] = geomean(opsPerSec);
    return out;
}

} // namespace bssd::perfbench
