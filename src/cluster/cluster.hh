/**
 * @file
 * First-class sharded cluster: N store × WAL × device shard rigs
 * behind one host router, on the conservative parallel engine.
 *
 * This is ROADMAP item 1 grown into a subsystem. A Cluster owns
 *
 *  - one host domain running a host::ShardRouter fed by an open-loop
 *    arrival process (Poisson or bursty, thousands of simulated
 *    users), which posts every batch the tick it is formed;
 *  - N shard domains, each a miniredis store (appendfsync=always)
 *    over a rigs::Rig built by the rig library (src/rigs/rig.hh):
 *    a single-buffered BA-WAL on a 2B-SSD, as the paper runs Redis
 *    (Section IV-B), a page-aligned block WAL, or a single-buffered
 *    BA-WAL synchronously replicated to a follower 2B-SSD
 *    (wal::ReplicatedWal), on the GC preset (a shrunken array with
 *    incremental background GC enabled) or on the tiny crash-matrix
 *    preset;
 *  - a cluster::ShardMap routing keys by hash or by contiguous range,
 *    consulted by the router's route function on every operation.
 *
 * Online rebalancing (runRebalance sequence, all orchestrated from
 * the host domain so it is bit-identical at any engine thread count):
 *
 *  1. at a configured arrival cycle the host computes a
 *     ShardMap::planMove for the configured interval and installs a
 *     hold predicate — operations whose routing point is mid-move
 *     park in the router instead of dispatching;
 *  2. the host polls the victims' outstanding-batch counters until
 *     every in-flight batch that could touch the interval has
 *     completed (the drain);
 *  3. for each plan step the host reads the moving keys out of the
 *     victim in store key order (a posted message
 *     into the victim's domain), writes them durably to the target,
 *     then durably deletes them from the victim — every hop rides
 *     the same request/completion channels as normal traffic and
 *     pays the same lookaheads;
 *  4. the map flips atomically (ShardMap::apply) in one host-domain
 *     event — the tick barrier — and the parked operations re-route
 *     through the new map and dispatch.
 *
 * A power cut on a replicated shard's primary is recoverable at any
 * point: crashAndRecoverShard promotes the follower and replays the
 * shard's store from the follower's durable contents
 * (DESIGN.md section 13).
 */

#ifndef BSSD_CLUSTER_CLUSTER_HH
#define BSSD_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/shard_map.hh"
#include "host/shard_router.hh"
#include "rigs/rig.hh"
#include "sim/client.hh"
#include "sim/domain.hh"
#include "sim/engine.hh"
#include "sim/metrics.hh"
#include "sim/report.hh"
#include "sim/trace.hh"

namespace bssd::cluster
{

/** Cluster topology, rig flavour, workload shape and rebalance plan. */
struct ClusterConfig
{
    /** Shard (device/rig) domains; the host router is one more. */
    unsigned shards = 4;

    /**
     * Shard WAL: rigs::WalKind::baSingle, block or baReplSingle (the
     * constructor rejects every other kind). Redis is single-threaded,
     * so its BA-WALs are single-buffered.
     */
    rigs::WalKind wal = rigs::WalKind::baSingle;

    /**
     * GC preset: shrink each shard's array (6 blocks/die) and enable
     * incremental background GC with partial relocation steps. The
     * workloads in the tree never fill a block on it: a shard programs
     * a handful of pages and GC never runs (ftl.gc.steps and
     * nand.blocks_erased stay 0).
     */
    bool gc = true;

    /** How the router maps keys to shards. */
    Sharding sharding = Sharding::hash;

    /** Engine worker threads (1 = serial reference). */
    unsigned engineThreads = 1;

    /** @name Router workload (see host::RouterConfig) @{ */
    std::uint32_t opsPerCycle = 64;
    std::uint64_t cycles = 48;
    /** Open-loop arrival process of cycle starts. */
    sim::ArrivalSpec arrival;
    /** Keys = simulated users; drawn uniformly from [0, keySpace). */
    std::uint64_t keySpace = 512;
    std::uint32_t valueBytes = 96;
    std::uint64_t seed = 1;
    /** @} */

    /** @name Online rebalance @{ */

    /** Arrival cycle at which the range move starts (0 = never). */
    std::uint64_t rebalanceAtCycle = 0;
    /**
     * Moved interval of the ROUTING SPACE in 1/256ths: the plan moves
     * points in [space/256 * moveBegin256, space/256 * moveEnd256).
     * Expressed as 256ths (not raw points) so one config works for
     * both hash (space = 2^63) and range (space = keySpace) maps,
     * exactly and without floating point.
     */
    std::uint32_t moveBegin256 = 0;
    std::uint32_t moveEnd256 = 64;
    /** Shard that receives the moved interval. */
    unsigned moveTo = 0;
    /** @} */
};

/**
 * A sharded serving fleet on the parallel engine. Construct, run(),
 * then read results; the object stays alive for post-run
 * introspection (consistency check, crash/recover, digests).
 */
class Cluster
{
  public:
    /**
     * Build the fleet. When @p trace is non-null every shard records
     * into a private tracer and run() appends them to @p trace in
     * shard (domain-id) order — byte-identical across thread counts.
     */
    explicit Cluster(const ClusterConfig &cfg,
                     sim::Tracer *trace = nullptr);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /**
     * Drive the engine in fixed chunks until the router drains and
     * any scheduled rebalance has flipped. Panics if the run fails to
     * drain (e.g. a rebalance scheduled past the last cycle).
     */
    void run();

    /** Time the engine's barrier waits with @p clock (see
     *  sim::ParallelEngine::timeBarrierWith); host-side only. */
    void
    timeBarrierWith(sim::ParallelEngine::WallClock clock)
    {
        engine_.timeBarrierWith(clock);
    }

    /** @name Post-run results @{ */

    /** The router's counters and latency views. */
    const host::ShardRouter &router() const { return *router_; }

    /** The routing map (post-rebalance version if one ran). */
    const ShardMap &map() const { return map_; }

    /** Engine introspection (rounds, messages, events). */
    const sim::ParallelEngine &engine() const { return engine_; }

    /** Simulated time the run needed to drain (ticks). */
    sim::Tick horizon() const { return horizon_; }

    /** Range moves completed / keys physically copied by them. */
    std::uint64_t rebalancesDone() const { return rebalances_; }
    std::uint64_t movedKeys() const { return movedKeys_; }

    /**
     * Digest of final cluster state: every shard's store content
     * digest (the multiset hash of its entries, DESIGN.md section 13)
     * plus its command/IO counters, FNV-folded in shard order, plus
     * the map version and moved-key count. Equal digests mean equal
     * data. O(shards): the stores keep their digests per mutation.
     */
    std::uint64_t stateDigest() const;

    /**
     * Metrics snapshot: the engine's self-telemetry ("engine.*"),
     * every shard's device/WAL metrics ("shardN.*") and the SLO
     * gauges ("slo.*"), including gauges only one shard registers
     * (the rebalance target's inbound_keys).
     */
    sim::MetricsSnapshot metricsSnapshot() const;

    /** metricsSnapshot() as JSON (deterministic row order). */
    std::string metricsJson() const;

    /**
     * Per-shard SLO time series sampled over the run on the simulated
     * clock (DESIGN.md section 14): queue depth, WAL store bytes, GC
     * debt, sliding-window op p99 per shard, plus cluster-wide
     * held-ops / rebalance-hold-time columns. Deterministic: one
     * sampler over one registry, columns in path order, pumped at
     * fixed horizons.
     */
    const sim::SeriesTable &sloSeries() const
    {
        return sloSampler_->table();
    }

    /** sloSeries() as JSON. */
    std::string sloJson() const;

    /**
     * Structural consistency check over the whole fleet; panics on
     * violation. Verifies that every stored key lives on exactly the
     * shard the current map assigns it to (so a rebalance copied
     * everything and purged the victim) and that every value matches
     * the workload's deterministic payload pattern byte-for-byte (so
     * the copy path moved bytes, not just key names). One unordered
     * pass per store; the panic names the smallest offending key id
     * (ties: lower shard, then key text), so its text is the same at
     * any engine thread count.
     */
    void verifyConsistency() const;

    /**
     * Fault injection for the consistency check's own tests: durably
     * write @p value under router key @p key straight into one shard's
     * store (a SET on that shard's clock), bypassing the router and
     * the map. Call after run().
     */
    void plantEntry(unsigned shard, std::uint64_t key,
                    std::span<const std::uint8_t> value);

    /**
     * Power-cut the primary of a replicated shard and recover from
     * the promoted follower (WalKind::baReplSingle only; panics
     * otherwise).
     * @return true when the recovered store digest equals the
     *         pre-crash digest (synchronous replication: the drained
     *         fleet has no unacknowledged writes to lose).
     */
    bool crashAndRecoverShard(unsigned shard);

    /** @} */

  private:
    /** One shard: miniredis over a rigs::Rig, living in the rig's
     *  domain. */
    struct Shard;

    void buildShards(sim::Tracer *trace);
    host::ShardRouter::ShardExec makeExec();
    /** Register every SLO gauge ("slo.cluster.*", "slo.shardN.*"). */
    void registerSlo(sim::MetricRegistry &reg) const;
    /** The rebalance's cross-domain identity (empty when untraced). */
    sim::TraceContext rebalCtx() const
    {
        return sim::TraceContext{rebalTrace_, rebalGid_};
    }

    /** @name Rebalance state machine (host domain only) @{ */
    void onCycle(std::uint64_t cyclesDone);
    void startRebalance();
    void pollDrain();
    void runStep(std::size_t step);
    void finishRebalance();
    /** @} */

    ClusterConfig cfg_;
    sim::ParallelEngine engine_;
    sim::Domain host_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<sim::Domain *> shardDoms_;
    ShardMap map_;
    std::unique_ptr<host::ShardRouter> router_;
    sim::Tracer *trace_ = nullptr;
    /** Host-domain tracer (stream 0): router spans, rebalance spans,
     *  contexts pushed by posts delivered into the host domain. */
    sim::Tracer hostTracer_;

    /** @name SLO sampling (DESIGN.md section 14) @{ */
    sim::MetricRegistry sloReg_;
    std::unique_ptr<sim::GaugeSampler> sloSampler_;
    /** @} */

    sim::Tick horizon_ = 0;
    bool ran_ = false;

    /** Rebalance progress. */
    enum class Rebal : std::uint8_t
    {
        idle,     ///< not scheduled or not reached yet
        draining, ///< hold installed, waiting out in-flight batches
        copying,  ///< plan steps executing
        done      ///< map flipped, holds released
    } rebal_ = Rebal::idle;
    std::vector<MoveRange> plan_;
    std::uint64_t rebalances_ = 0;
    std::uint64_t movedKeys_ = 0;
    /** Rebalance trace identity + phase boundaries (traced runs). */
    std::uint64_t rebalTrace_ = 0;
    std::uint64_t rebalGid_ = 0;
    sim::Tick rebalStart_ = 0;
    sim::Tick drainEnd_ = 0;
};

} // namespace bssd::cluster

#endif // BSSD_CLUSTER_CLUSTER_HH
