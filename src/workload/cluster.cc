#include "workload/cluster.hh"

#include <memory>

#include "cluster/cluster.hh"
#include "sim/stats.hh"

namespace bssd::workload
{

namespace
{

cluster::ClusterConfig
toClusterConfig(const ClusterConfig &cfg)
{
    cluster::ClusterConfig c;
    c.shards = cfg.shards;
    c.engine = cfg.engine == ClusterConfig::Engine::redis
                   ? cluster::ClusterConfig::Engine::redis
                   : cluster::ClusterConfig::Engine::pg;
    switch (cfg.wal) {
      case ClusterConfig::Wal::ba:
        c.wal = cluster::ClusterConfig::Wal::ba;
        break;
      case ClusterConfig::Wal::block:
        c.wal = cluster::ClusterConfig::Wal::block;
        break;
      case ClusterConfig::Wal::baRepl:
        c.wal = cluster::ClusterConfig::Wal::baRepl;
        break;
    }
    c.gc = cfg.gc;
    c.sharding = cfg.rangeSharded ? cluster::Sharding::range
                                  : cluster::Sharding::hash;
    c.engineThreads = cfg.engineThreads;
    c.opsPerCycle = cfg.opsPerCycle;
    c.cycles = cfg.cycles;
    c.arrival = cfg.arrival;
    c.setFraction = cfg.setFraction;
    c.keySpace = cfg.keySpace;
    c.valueBytes = cfg.valueBytes;
    c.seed = cfg.seed;
    c.queuePairs = cfg.nvmeQueuePairs;
    c.queueDepth = cfg.nvmeQueueDepth;
    c.rebalanceAtCycle = cfg.rebalanceAtCycle;
    c.moveBegin256 = cfg.moveBegin256;
    c.moveEnd256 = cfg.moveEnd256;
    c.moveTo = cfg.moveTo;
    return c;
}

} // namespace

ClusterResult
runCluster(const ClusterConfig &cfg, sim::Tracer *trace,
           const PhaseHook &onPhase)
{
    auto phase = [&onPhase](std::string_view name) {
        if (onPhase)
            onPhase(name);
    };
    auto c = std::make_unique<cluster::Cluster>(toClusterConfig(cfg),
                                                trace);
    phase("build");
    c->run();
    phase("run");
    // Every cluster run doubles as a consistency check: ownership and
    // payload bytes must line up with the (possibly rebalanced) map.
    c->verifyConsistency();
    phase("verify");

    ClusterResult res;
    res.stateDigest = c->stateDigest();
    phase("digest");
    const host::ShardRouter &router = c->router();
    res.opsRouted = router.opsRouted();
    res.opsCompleted = router.opsCompleted();
    res.batchesDispatched = router.batchesDispatched();
    res.batchesCompleted = router.batchesCompleted();
    res.eventsFired = c->engine().eventsFired();
    res.rounds = c->engine().rounds();
    res.messages = c->engine().messagesDelivered();
    res.horizon = c->horizon();
    res.batchP50 = router.batchLatency().percentile(50.0);
    res.batchP99 = router.batchLatency().percentile(99.0);
    res.opP50 = router.opLatency().percentile(50.0);
    res.opP99 = router.opLatency().percentile(99.0);
    res.opP999 = router.opLatency().percentile(99.9);
    res.usersTouched = router.usersTouched();
    res.rebalances = c->rebalancesDone();
    res.movedKeys = c->movedKeys();
    res.metricsJson = c->metricsJson();
    res.sloSeriesJson = c->sloJson();
    phase("report");
    c.reset();
    phase("teardown");
    return res;
}

} // namespace bssd::workload
