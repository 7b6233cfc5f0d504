/**
 * @file
 * Sharded key-value cluster scenario on the parallel engine.
 *
 * A thin, result-oriented wrapper over the first-class
 * cluster::Cluster subsystem (src/cluster): one host domain runs a
 * ShardRouter; N shard domains each own a full store × WAL × device
 * rig (miniredis or minipg over a BA-WAL on a 2B-SSD, a block WAL
 * with fsync, or a BA-WAL replicated to a follower device). The
 * benches, sweep harness, and determinism tests all drive cluster
 * runs through this one function, so every caller gets the same
 * construction, the same drain loop, and the same built-in
 * consistency check.
 */

#ifndef BSSD_WORKLOAD_CLUSTER_HH
#define BSSD_WORKLOAD_CLUSTER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "sim/client.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace bssd::workload
{

/** Cluster topology, rig flavour and workload shape. */
struct ClusterConfig
{
    /** Shard (device/rig) domains; the host router is one more. */
    unsigned shards = 4;
    /** Store engine every shard runs. */
    enum class Engine : std::uint8_t
    {
        redis, ///< miniredis, appendfsync=always
        pg     ///< minipg, XLOG + group commit
    } engine = Engine::redis;
    /** Shard WAL flavour. */
    enum class Wal : std::uint8_t
    {
        ba,    ///< BA-WAL on a 2B-SSD (single-buffered, like Redis)
        block, ///< page-aligned block WAL with fsync
        baRepl ///< BA-WAL replicated to a follower 2B-SSD
    } wal = Wal::ba;
    /**
     * GC preset: shrink each shard's array (6 blocks/die) and run
     * incremental background GC with partial relocation steps, so the
     * op stream wraps the WAL region and keeps GC continuously active.
     */
    bool gc = true;
    /** Key-hash or contiguous-range routing (cluster::Sharding). */
    bool rangeSharded = false;
    /** Engine worker threads (1 = serial reference). */
    unsigned engineThreads = 1;

    /** @name Router workload (see host::RouterConfig) @{ */
    std::uint32_t opsPerCycle = 64;
    std::uint64_t cycles = 48;
    /** Open-loop arrival process of cycle starts (Poisson default,
     *  meanGap 400 us; set kind = bursty for clustered arrivals). */
    sim::ArrivalSpec arrival;
    double setFraction = 0.7;
    std::uint64_t keySpace = 512;
    std::uint32_t valueBytes = 96;
    std::uint64_t seed = 1;
    /** Host NVMe-style I/O queue pairs per shard. */
    std::uint16_t nvmeQueuePairs = 1;
    /** Batches each pair admits; 0 = unbounded (no queue gating). */
    std::uint16_t nvmeQueueDepth = 0;
    /** @} */

    /** @name Online rebalance (0 = none) @{ */
    std::uint64_t rebalanceAtCycle = 0;
    /** Moved interval of the routing space in 1/256ths. */
    std::uint32_t moveBegin256 = 0;
    std::uint32_t moveEnd256 = 64;
    unsigned moveTo = 0;
    /** @} */
};

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
 * counts).
 */
ClusterResult runCluster(const ClusterConfig &cfg,
                         sim::Tracer *trace = nullptr,
                         const PhaseHook &onPhase = {});

} // namespace bssd::workload

#endif // BSSD_WORKLOAD_CLUSTER_HH
