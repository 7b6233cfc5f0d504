#include "workload/cluster.hh"

#include <memory>

#include "cluster/cluster.hh"
#include "sim/stats.hh"

namespace bssd::workload
{

ClusterResult
runCluster(const cluster::ClusterConfig &cfg, sim::Tracer *trace,
           const PhaseHook &onPhase,
           sim::ParallelEngine::WallClock wallClock)
{
    auto phase = [&onPhase](std::string_view name) {
        if (onPhase)
            onPhase(name);
    };
    auto c = std::make_unique<cluster::Cluster>(cfg, trace);
    c->timeBarrierWith(wallClock);
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
    res.inlineRounds = c->engine().inlineRounds();
    res.parallelRounds = c->engine().parallelRounds();
    res.barrierWaitMs = c->engine().barrierWaitMs();
    res.horizon = c->horizon();
    res.batchP50 = router.batchLatency().percentile(50.0);
    res.batchP99 = router.batchLatency().percentile(99.0);
    res.opMean = router.opLatency().mean();
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
