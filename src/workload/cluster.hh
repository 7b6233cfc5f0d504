/**
 * @file
 * Sharded key-value cluster scenario on the parallel engine.
 *
 * A thin, result-oriented wrapper over the first-class
 * cluster::Cluster subsystem (src/cluster), configured by the one
 * cluster::ClusterConfig: one host domain runs a ShardRouter; N shard
 * domains each own a miniredis store over a rigs::Rig (a
 * single-buffered BA-WAL on a 2B-SSD, a block WAL with fsync, or a
 * single-buffered BA-WAL replicated to a follower device). The
 * benches, sweep harness, and
 * determinism tests all drive cluster runs through this one function,
 * so every caller gets the same construction, the same drain loop,
 * and the same built-in consistency check.
 */

#ifndef BSSD_WORKLOAD_CLUSTER_HH
#define BSSD_WORKLOAD_CLUSTER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "cluster/cluster.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::workload
{

/** Everything a cluster run produces, determinism-comparable. */
struct ClusterResult
{
    std::uint64_t opsRouted = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t batchesDispatched = 0;
    std::uint64_t batchesCompleted = 0;
    /** Engine events fired, barrier rounds, mailbox messages. */
    std::uint64_t eventsFired = 0;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    /** Simulated time the run needed to drain (ticks). */
    sim::Tick horizon = 0;
    /** Host-observed batch latency percentiles (ticks). */
    std::uint64_t batchP50 = 0;
    std::uint64_t batchP99 = 0;
    /** Host-observed per-op mean latency (ticks). */
    double opMean = 0;
    /** Host-observed per-op latency percentiles (ticks). */
    std::uint64_t opP50 = 0;
    std::uint64_t opP99 = 0;
    std::uint64_t opP999 = 0;
    /** Distinct keys ("simulated users") the run touched. */
    std::uint64_t usersTouched = 0;
    /** Range moves completed / keys they physically copied. */
    std::uint64_t rebalances = 0;
    std::uint64_t movedKeys = 0;
    /**
     * Digest of final cluster state (cluster::Cluster::stateDigest):
     * every shard's multiset content digest plus its command/IO
     * counters, folded in shard order, plus the shard-map version.
     * Equal digests mean equal stored data.
     */
    std::uint64_t stateDigest = 0;
    /** Merged metrics snapshot (JSON, deterministic row order). */
    std::string metricsJson;
    /** Per-shard SLO time series (JSON, deterministic column order:
     *  host gauges first, then shards by id). */
    std::string sloSeriesJson;

    /** @name How the engine ran the rounds (host side)
     *
     * Not determinism-comparable: the inline/parallel split depends
     * on the thread count, the wait on the host. Benches report these
     * beside wall times, never in an artifact that is diffed.
     * @{ */
    std::uint64_t inlineRounds = 0;
    std::uint64_t parallelRounds = 0;
    /** Caller's barrier wait, wall ms (0 unless a clock was given). */
    double barrierWaitMs = 0.0;
    /** @} */
};

/**
 * Called as each phase of runCluster() ends, with the phase's name:
 * "build", "run", "verify", "digest", "report", "teardown". Benches
 * time the phases with it; it must not touch simulated state.
 */
using PhaseHook = std::function<void(std::string_view phase)>;

/**
 * Build the cluster, run it until the router drains (and any
 * scheduled rebalance flips), verify fleet-wide consistency, and
 * tear it down. When @p trace is non-null each shard records into
 * its own tracer and the per-domain traces are appended to @p trace
 * in domain-id order afterwards (byte-identical across thread
 * counts). When @p wallClock is non-null the engine's barrier waits
 * are timed with it (ClusterResult::barrierWaitMs).
 */
ClusterResult runCluster(const cluster::ClusterConfig &cfg,
                         sim::Tracer *trace = nullptr,
                         const PhaseHook &onPhase = {},
                         sim::ParallelEngine::WallClock wallClock = nullptr);

} // namespace bssd::workload

#endif // BSSD_WORKLOAD_CLUSTER_HH
