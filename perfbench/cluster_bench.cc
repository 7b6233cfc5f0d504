/**
 * @file
 * cluster-steady and cluster-burst-move: the bench_cluster fleet
 * (8 shards x miniredis x BA-WAL on 2B-SSD, 2,097,152 ops over 2M
 * keys) driven through cluster::Cluster's public calls, each call
 * timed on the wall clock.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "perfbench.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"
#include "support/stopwatch.hh"

namespace bssd::perfbench
{

namespace
{

using bench::Stopwatch;

/**
 * Engine worker threads of every timed pass: half the cores of the
 * 4-core reference host, so wall time measures the program rather
 * than the scheduler.
 */
constexpr unsigned kEngineThreads = 2;
/** Standalone Cluster constructions timed for setup_s (median). */
constexpr int kSetupSamples = 21;
/**
 * Wall budget of one timed pass. A run makes floor(--seconds / this)
 * passes (at least one), so the pass count, and with it every
 * simulated metric, is a function of the flags alone.
 */
constexpr double kPassBudgetS = 10.0;
/** Seed stride between the passes of one run. */
constexpr std::uint64_t kPassSeedStride = 1'000'000;
/** The smoke test's fleet: 1/32 of the cycles over 1/32 of the keys. */
constexpr std::uint64_t kQuickDivisor = 32;
/** Distinct keys ("simulated users") a full run must touch. */
constexpr std::uint64_t kMinUsers = 1'000'000;

/** bench_cluster's full fleet, poisson or bursty-move mix. */
cluster::ClusterConfig
fleetConfig(bool burstMove, std::uint64_t seed, bool quick)
{
    cluster::ClusterConfig cfg;
    cfg.shards = 8;
    cfg.gc = false;
    cfg.opsPerCycle = 2048;
    cfg.cycles = 1024;
    cfg.keySpace = 2'000'000;
    if (quick) {
        cfg.cycles /= kQuickDivisor;
        cfg.keySpace /= kQuickDivisor;
    }
    cfg.valueBytes = 64;
    cfg.seed = seed;
    cfg.engineThreads = kEngineThreads;
    // ~82k offered ops/s against a fleet that serves ~125k/s.
    cfg.arrival.meanGap = sim::msOf(25);
    if (burstMove) {
        // Same mean load as 16k-op spikes (8 cycles per burst), plus
        // an online move of a quarter of the routing space.
        cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
        cfg.arrival.burstSize = 8;
        cfg.arrival.burstGap = sim::usOf(20);
        cfg.arrival.meanGap = sim::msOf(200);
        cfg.rebalanceAtCycle = cfg.cycles / 3;
        cfg.moveBegin256 = 0;
        cfg.moveEnd256 = 64;
        cfg.moveTo = cfg.shards - 1;
    }
    return cfg;
}

/** One build -> run -> verify -> digest -> report -> teardown pass. */
struct Pass
{
    /** @name Wall seconds of each public call, and of the pass @{ */
    double buildS = 0.0;
    double runS = 0.0;
    double verifyS = 0.0;
    double digestS = 0.0;
    double reportS = 0.0;
    double wallS = 0.0;
    /** @} */

    /** verifyConsistency()'s panic message; empty when it passed. */
    std::string verifyError;
    std::uint64_t routed = 0;
    std::uint64_t completed = 0;
    std::uint64_t users = 0;
    std::uint64_t movedKeys = 0;
    std::uint64_t events = 0;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t batches = 0;
    sim::Tick horizon = 0;
    /** The router's exact per-op latency histogram (ticks). */
    sim::Histogram opLatency;
    double batchP99Us = 0.0;
    /** The bytes compared across engine thread counts. */
    std::uint64_t digest = 0;
    std::string metricsJson;

    /** @name Per-layer reads (keepLayers passes only) @{ */
    sim::MetricsSnapshot snapshot;
    double heldOpsPeak = 0.0;
    double holdTicksPeak = 0.0;
    /** @} */
};

/** Largest value of one column of the SLO series. */
double
seriesPeak(const sim::SeriesTable &t, const std::string &column)
{
    auto it = std::find(t.columns.begin(), t.columns.end(), column);
    if (it == t.columns.end())
        return 0.0;
    const auto col = static_cast<std::size_t>(it - t.columns.begin());
    double peak = 0.0;
    for (const sim::SeriesTable::Row &row : t.rows) {
        if (col < row.values.size())
            peak = std::max(peak, row.values[col]);
    }
    return peak;
}

/**
 * @p verify false skips verifyConsistency(): the serial reference
 * pass only has to reproduce the digest and metrics of a verified one.
 */
Pass
runPass(const cluster::ClusterConfig &cfg, bool keepLayers, bool verify)
{
    Pass p;
    Stopwatch whole;
    Stopwatch sw;
    auto c = std::make_unique<cluster::Cluster>(cfg);
    p.buildS = sw.sec();

    sw.restart();
    c->run();
    p.runS = sw.sec();

    sw.restart();
    try {
        if (verify)
            c->verifyConsistency();
    } catch (const sim::SimPanic &e) {
        p.verifyError = e.what();
    }
    p.verifyS = sw.sec();

    sw.restart();
    p.digest = c->stateDigest();
    p.digestS = sw.sec();

    sw.restart();
    p.metricsJson = c->metricsJson();
    const std::string slo = c->sloJson();
    p.reportS = sw.sec();

    const host::ShardRouter &router = c->router();
    p.routed = router.opsRouted();
    p.completed = router.opsCompleted();
    p.users = router.usersTouched();
    p.batches = router.batchesCompleted();
    p.movedKeys = c->movedKeys();
    p.events = c->engine().eventsFired();
    p.rounds = c->engine().rounds();
    p.messages = c->engine().messagesDelivered();
    p.horizon = c->horizon();
    p.opLatency = router.opLatency();
    p.batchP99Us = sim::toUs(router.batchLatency().percentile(99.0));
    if (keepLayers) {
        p.snapshot = c->metricsSnapshot();
        p.heldOpsPeak = seriesPeak(c->sloSeries(), "slo.cluster.held_ops");
        p.holdTicksPeak =
            seriesPeak(c->sloSeries(), "slo.cluster.hold_ticks");
    }

    c.reset();
    p.wallS = whole.sec();
    return p;
}

void
checkPass(const Pass &p, const std::string &label, std::uint64_t offered,
          std::uint64_t minUsers, Outcome &out)
{
    out.check(p.verifyError.empty(),
              label + ": verifyConsistency() failed: " + p.verifyError);
    out.check(p.completed == offered && p.routed == offered,
              label + ": ops completed " + std::to_string(p.completed) +
                  ", routed " + std::to_string(p.routed) +
                  ", offered " + std::to_string(offered));
    out.check(p.users >= minUsers,
              label + ": touched " + std::to_string(p.users) +
                  " users, need >= " + std::to_string(minUsers));
}

void
checkSameState(const Pass &ref, const Pass &p, const std::string &label,
               Outcome &out)
{
    out.check(p.digest == ref.digest,
              label + ": state digest differs from the reference pass");
    out.check(p.metricsJson == ref.metricsJson,
              label + ": metricsJson() differs from the reference pass");
}

double
share(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The cluster / engine / router per-layer metrics of one pass. */
void
addClusterLayers(const Pass &p, const Pass &serial, Outcome &out)
{
    auto &m = out.metrics;
    m["cluster.build_s"] = p.buildS;
    m["cluster.run_s"] = p.runS;
    m["cluster.verify_s"] = p.verifyS;
    m["cluster.digest_s"] = p.digestS;
    m["cluster.report_s"] = p.reportS;
    m["cluster.moved_keys"] = static_cast<double>(p.movedKeys);
    m["cluster.horizon_s"] = sim::toSec(p.horizon);

    m["engine.events"] = static_cast<double>(p.events);
    m["engine.rounds"] = static_cast<double>(p.rounds);
    m["engine.messages"] = static_cast<double>(p.messages);
    m["engine.events_per_round"] =
        share(static_cast<double>(p.events), static_cast<double>(p.rounds));
    double stall = 0.0;
    for (const auto &[path, v] : p.snapshot.rows) {
        const bool perDomain = path.rfind("engine.", 0) == 0 &&
                               path.size() > 12 &&
                               path.compare(path.size() - 12, 12,
                                            ".stall_ticks") == 0;
        if (perDomain)
            stall += v.value;
    }
    m["engine.stall_ticks"] = stall;
    m["engine.host_us_per_event"] =
        share(p.runS * 1e6, static_cast<double>(p.events));
    m["engine.speedup"] = share(serial.runS, p.runS);

    m["router.batches"] = static_cast<double>(p.batches);
    m["router.batch_p99_us"] = p.batchP99Us;
    m["router.op_mean_us"] = p.opLatency.mean() / 1e3;
    m["router.op_p50_us"] = sim::toUs(p.opLatency.percentile(50.0));
    m["router.op_p99_us"] = sim::toUs(p.opLatency.percentile(99.0));
    m["router.op_p999_us"] = sim::toUs(p.opLatency.percentile(99.9));
    m["slo.cluster.held_ops"] = p.heldOpsPeak;
    m["slo.cluster.hold_ticks"] = p.holdTicksPeak;

    addDeviceLayers(p.snapshot, "shard", m);
}

/** One human-readable line per pass, for comparing with baselines. */
void
printPass(const Pass &p, std::uint64_t seed)
{
    std::printf("# seed %llu: users %llu  ops %llu  sim ops/s %.0f  "
                "op p50 %.1f us  p99 %.1f us  p99.9 %.1f us  moved %llu  "
                "digest %llx  wall %.3f s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(p.users),
                static_cast<unsigned long long>(p.completed),
                share(static_cast<double>(p.completed),
                      sim::toSec(p.horizon)),
                sim::toUs(p.opLatency.percentile(50.0)),
                sim::toUs(p.opLatency.percentile(99.0)),
                sim::toUs(p.opLatency.percentile(99.9)),
                static_cast<unsigned long long>(p.movedKeys),
                static_cast<unsigned long long>(p.digest), p.wallS);
}

} // namespace

Outcome
runClusterWorkload(const Options &opt, bool burstMove)
{
    Outcome out;
    const std::uint64_t minUsers =
        opt.quick ? kMinUsers / kQuickDivisor : kMinUsers;
    // Timed passes: the run's seed first, then seeds a stride apart,
    // so sim_ops_per_s pools several independent arrival streams.
    const std::size_t passes =
        opt.trace ? 1
                  : static_cast<std::size_t>(std::clamp(
                        opt.seconds / kPassBudgetS, 1.0, 100.0));
    std::vector<cluster::ClusterConfig> cfgs;
    for (std::size_t k = 0; k < passes; ++k) {
        cfgs.push_back(fleetConfig(burstMove, opt.seed + k * kPassSeedStride,
                                   opt.quick));
    }
    const std::uint64_t offered = cfgs[0].opsPerCycle * cfgs[0].cycles;

    std::vector<double> setup;
    if (!opt.trace) {
        for (int i = 0; i < kSetupSamples; ++i) {
            Stopwatch sw;
            cluster::Cluster c(cfgs[0]);
            setup.push_back(sw.sec());
        }
    }
    std::vector<Pass> timed;
    for (const cluster::ClusterConfig &cfg : cfgs)
        timed.push_back(runPass(cfg, opt.trace, true));

    // The serial reference: the first pass's inputs on one engine
    // thread. Its digest and merged metrics must equal that pass's.
    cluster::ClusterConfig serialCfg = cfgs[0];
    serialCfg.engineThreads = 1;
    Pass serial = runPass(serialCfg, false, false);

    if (opt.corrupt == "drop-op")
        timed.front().completed -= 1;
    if (opt.corrupt == "digest")
        serial.digest ^= 1;

    for (std::size_t k = 0; k < timed.size(); ++k) {
        printPass(timed[k], cfgs[k].seed);
        checkPass(timed[k], "pass seed " + std::to_string(cfgs[k].seed),
                  offered, minUsers, out);
        out.attempted += offered;
        out.failed += offered - std::min(timed[k].completed, offered);
    }
    std::printf("# serial pass: wall %.3f s\n", serial.wallS);
    checkPass(serial, "serial pass", offered, minUsers, out);
    checkSameState(timed.front(), serial, "serial pass", out);
    if (!out.failures.empty())
        out.failed = out.attempted;

    if (opt.trace) {
        out.metrics["trace.wall_s"] = timed.front().wallS;
        addClusterLayers(timed.front(), serial, out);
        return out;
    }

    std::vector<double> walls;
    double completed = 0.0;
    double horizonS = 0.0;
    for (const Pass &p : timed) {
        walls.push_back(p.wallS);
        completed += static_cast<double>(p.completed);
        horizonS += sim::toSec(p.horizon);
    }
    out.metrics["wall_s"] = median(walls);
    out.metrics["setup_s"] = median(setup);
    out.metrics["sim_ops_per_s"] = share(completed, horizonS);
    return out;
}

} // namespace bssd::perfbench
