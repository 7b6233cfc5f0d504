/**
 * @file
 * The cluster subsystem end to end: sharded serving over hash and
 * range maps, online rebalancing (drain → copy → purge → flip), and
 * primary power cuts on replicated shards recovering from the
 * promoted follower.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

using namespace bssd;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Sharding;
using rigs::WalKind;

namespace
{

/** Small-but-real fleet: 4 shards on the GC preset (GC never runs). */
ClusterConfig
smallFleet()
{
    ClusterConfig cfg;
    cfg.shards = 4;
    cfg.cycles = 12;
    cfg.opsPerCycle = 32;
    cfg.keySpace = 96;
    cfg.valueBytes = 64;
    return cfg;
}

/** smallFleet with a mid-run range move scheduled. */
ClusterConfig
rebalancingFleet(Sharding kind)
{
    ClusterConfig cfg = smallFleet();
    cfg.sharding = kind;
    cfg.cycles = 16;
    cfg.rebalanceAtCycle = 6;
    // The first quarter of the routing space starts on shard 0 (the
    // constructor splits uniformly); moving it to the last shard
    // guarantees a non-empty plan.
    cfg.moveBegin256 = 0;
    cfg.moveEnd256 = 64;
    cfg.moveTo = cfg.shards - 1;
    return cfg;
}

} // namespace

TEST(Cluster, ServesAndStaysConsistentUnderHashSharding)
{
    Cluster c(smallFleet());
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    EXPECT_EQ(c.router().opsRouted(), 12u * 32u);
    EXPECT_GT(c.router().usersTouched(), 0u);
    EXPECT_GT(c.router().opLatency().count(), 0u);
    EXPECT_NE(c.stateDigest(), 0u);
    c.verifyConsistency();
}

TEST(Cluster, ServesAndStaysConsistentUnderRangeSharding)
{
    ClusterConfig cfg = smallFleet();
    cfg.sharding = Sharding::range;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();

    // Contiguous ranges: key 0 and key keySpace-1 land on the first
    // and last shard respectively.
    EXPECT_EQ(c.map().shardOf(0), 0u);
    EXPECT_EQ(c.map().shardOf(cfg.keySpace - 1), cfg.shards - 1);
}

TEST(Cluster, RebalanceMovesTheIntervalAndPurgesTheVictim)
{
    for (Sharding kind : {Sharding::hash, Sharding::range}) {
        SCOPED_TRACE(shardingName(kind));
        ClusterConfig cfg = rebalancingFleet(kind);
        Cluster c(cfg);
        c.run();

        EXPECT_EQ(c.rebalancesDone(), 1u);
        EXPECT_GT(c.movedKeys(), 0u);
        // The flip bumped the map version past the freshly built map.
        EXPECT_GT(c.map().version(),
                  cluster::ShardMap(kind, cfg.shards, cfg.keySpace)
                      .version());
        // Every op (including the parked ones) completed, nothing was
        // dropped mid-move.
        EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
        EXPECT_EQ(c.router().opsRouted(),
                  cfg.cycles * cfg.opsPerCycle);
        EXPECT_EQ(c.router().heldOps(), 0u);
        // The moved interval now routes to the target...
        EXPECT_EQ(c.map().shardOfPoint(0), cfg.shards - 1);
        // ...and ownership + payload bytes check out on every shard
        // (this is what catches a lost or unpurged key).
        c.verifyConsistency();
    }
}

TEST(Cluster, RebalanceToTheCurrentOwnerIsANoOp)
{
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    cfg.moveTo = 0; // the constructor already gave shard 0 [0, 1/4)
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.rebalancesDone(), 1u);
    EXPECT_EQ(c.movedKeys(), 0u);
    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();
}

TEST(Cluster, RangeShardedBlockWalFleetServesAndRebalances)
{
    // The move's copy and purge hops ride fsync'd block-WAL commits.
    ClusterConfig cfg = rebalancingFleet(Sharding::range);
    cfg.wal = WalKind::block;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.rebalancesDone(), 1u);
    EXPECT_GT(c.movedKeys(), 0u);
    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();
}

TEST(Cluster, BurstyArrivalsDrainCompletely)
{
    ClusterConfig cfg = smallFleet();
    cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
    cfg.arrival.burstSize = 4;
    cfg.arrival.burstGap = sim::usOf(5);
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    EXPECT_EQ(c.router().opsRouted(), 12u * 32u);
    c.verifyConsistency();
}

TEST(Cluster, ReplicatedShardsSurviveAPrimaryPowerCut)
{
    ClusterConfig cfg = smallFleet();
    cfg.wal = WalKind::baReplSingle;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.router().opsCompleted(), c.router().opsRouted());
    c.verifyConsistency();
    // Cut every primary in turn: the follower has the full
    // acknowledged history (the fleet is drained, so acknowledged ==
    // everything) and the promoted recovery must reproduce the store
    // bit for bit.
    for (unsigned s = 0; s < cfg.shards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        EXPECT_TRUE(c.crashAndRecoverShard(s));
    }
    c.verifyConsistency();
}

TEST(Cluster, ReplicatedRebalancingFleetStaysRecoverable)
{
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    cfg.wal = WalKind::baReplSingle;
    Cluster c(cfg);
    c.run();

    EXPECT_EQ(c.rebalancesDone(), 1u);
    c.verifyConsistency();
    // The copy/purge traffic is WAL traffic like any other: both the
    // move target and the purged victim recover from their followers.
    EXPECT_TRUE(c.crashAndRecoverShard(cfg.moveTo));
    EXPECT_TRUE(c.crashAndRecoverShard(0));
    c.verifyConsistency();
}

TEST(Cluster, MetricsAndDigestAreStableAcrossThreadCounts)
{
    // The full 1/2/8-thread byte-identity matrix (traces included)
    // lives in test_cluster_determinism; this is the subsystem-level
    // smoke: same seed, different worker counts, same bytes.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    Cluster serial(cfg);
    serial.run();
    cfg.engineThreads = 4;
    Cluster parallel(cfg);
    parallel.run();

    EXPECT_EQ(serial.stateDigest(), parallel.stateDigest());
    EXPECT_EQ(serial.metricsJson(), parallel.metricsJson());
    EXPECT_EQ(serial.horizon(), parallel.horizon());
    EXPECT_EQ(serial.movedKeys(), parallel.movedKeys());
}

TEST(Cluster, TracedRunStitchesOneTreePerRequest)
{
    // Every completed op must appear in the merged trace as exactly
    // one root span (trace != 0, no local or cross-tracer parent)
    // with a unique trace id, and every cross-tracer link must
    // resolve to a span gid carrying the same trace. This is the
    // invariant trace_dump --validate enforces on artifacts;
    // asserting it here keeps the check independent of the tool.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    sim::Tracer trace;
    Cluster c(cfg, &trace);
    c.run();

    using Event = sim::Tracer::Event;
    std::set<std::uint64_t> roots;
    std::map<std::uint64_t, std::uint64_t> traceOfGid;
    std::map<std::uint32_t, std::uint64_t> traceOfLocalId;
    for (const Event &e : trace.events()) {
        if (e.kind != Event::Kind::span)
            continue;
        if (e.gid != 0)
            traceOfGid[e.gid] = e.trace;
        traceOfLocalId[e.id] = e.trace;
        if (e.trace != 0 && e.parent == 0 && e.xparent == 0) {
            // Root spans are one per request: duplicates would mean a
            // request picked up two competing span trees.
            EXPECT_TRUE(roots.insert(e.trace).second)
                << "duplicate root for trace " << e.trace;
        }
    }
    // One root per op, plus the rebalance's own request tree.
    EXPECT_EQ(roots.size(),
              static_cast<std::size_t>(cfg.cycles * cfg.opsPerCycle) +
                  1u);
    for (const Event &e : trace.events()) {
        if (e.kind != Event::Kind::span || e.xparent == 0)
            continue;
        auto it = traceOfGid.find(e.xparent);
        ASSERT_NE(it, traceOfGid.end())
            << "dangling xparent " << e.xparent;
        EXPECT_EQ(it->second, e.trace);
    }
    // Local parents never cross request boundaries either.
    for (const Event &e : trace.events()) {
        if (e.kind != Event::Kind::span || e.parent == 0)
            continue;
        auto it = traceOfLocalId.find(e.parent);
        ASSERT_NE(it, traceOfLocalId.end());
        if (e.trace != 0 && it->second != 0)
            EXPECT_EQ(it->second, e.trace);
    }
}

TEST(Cluster, TraceAndSloSeriesAreStableAcrossThreadCounts)
{
    // The observability outputs are part of the determinism contract:
    // the merged Chrome JSON and the per-shard SLO series must be
    // byte-identical no matter how many engine threads ran the fleet.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    auto runAt = [&cfg](unsigned threads) {
        ClusterConfig tc = cfg;
        tc.engineThreads = threads;
        sim::Tracer trace;
        Cluster c(tc, &trace);
        c.run();
        std::ostringstream os;
        trace.writeChromeJson(os);
        return std::make_pair(os.str(), c.sloJson());
    };
    const auto serial = runAt(0);
    const auto four = runAt(4);
    EXPECT_EQ(serial.first, four.first);
    EXPECT_EQ(serial.second, four.second);
    EXPECT_NE(serial.second.find("inbound_keys"), std::string::npos);
}

TEST(Cluster, SnapshotCarriesEngineAndOneSidedSloMetrics)
{
    // The snapshot keeps the engine's self-telemetry and the
    // one-sided inbound_keys gauge (registered only for the rebalance
    // target) without dropping or double-counting either.
    ClusterConfig cfg = rebalancingFleet(Sharding::hash);
    Cluster c(cfg);
    c.run();

    sim::MetricsSnapshot snap = c.metricsSnapshot();
    ASSERT_NE(snap.find("engine.rounds"), nullptr);
    ASSERT_NE(snap.find("engine.events"), nullptr);
    EXPECT_GT(snap.find("engine.rounds")->value, 0.0);
    for (unsigned s = 0; s < cfg.shards; ++s) {
        const std::string p =
            "slo.shard" + std::to_string(s) + ".inbound_keys";
        if (s == cfg.moveTo) {
            ASSERT_NE(snap.find(p), nullptr);
            EXPECT_DOUBLE_EQ(snap.find(p)->value,
                             static_cast<double>(c.movedKeys()));
        } else {
            EXPECT_EQ(snap.find(p), nullptr) << p;
        }
    }
}

namespace
{

/** FNV-1a over a string (the golden table's metrics fingerprint). */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(Cluster, ConstructionMatchesGoldenDigests)
{
    // Every shard flavour's construction pinned against recorded
    // values: a drifted device preset, WAL geometry, buffering mode or
    // metric prefix changes the state digest or the metrics bytes.
    // Digests and metrics hashes were recorded from the hand-built
    // shards that preceded the rig library, SLO series hashes from the
    // per-shard samplers that preceded the one SLO registry, and the
    // bursty-rebalance rows from the router's two-queue (hold plus
    // queue-pair gating) dispatch that preceded its one dispatch path;
    // the table must never be edited to make it pass.
    struct Golden
    {
        WalKind wal;
        bool gc;
        std::uint64_t digest;
        std::uint64_t metricsHash;
        std::uint64_t sloHash;
        /** rebalancingFleet(hash) under bursty arrivals, not smallFleet:
         *  pins the hold/drain/copy/purge/flip path and its SLO rows. */
        bool burstyRebalance = false;
    };
    const Golden table[] = {
        {WalKind::baSingle, true,
         0xb59cf1c228cfa26f, 0x2d28d0a411461753, 0x3aa3df831df1c485},
        {WalKind::baSingle, false,
         0xb59cf1c228cfa26f, 0x4d8560ec27bc61d3, 0x3aa3df831df1c485},
        {WalKind::block, true,
         0x6a2898a79bc22ac4, 0xbaf2f11e7c609f94, 0x57d8876892c375ab},
        {WalKind::block, false,
         0x6a2898a79bc22ac4, 0xaaecc0c9d35b24d0, 0x57d8876892c375ab},
        {WalKind::baReplSingle, true,
         0xee91ea63e18d326f, 0x012e422983168d6b, 0xbb959f0a7749ead8},
        {WalKind::baReplSingle, false,
         0xee91ea63e18d326f, 0x62644fa40eb66d55, 0xbb959f0a7749ead8},
        {WalKind::baSingle, true,
         0x9351f2c3e3d4d318, 0xe7844a3943dff04d, 0xd14c46613a271300,
         true},
        {WalKind::block, true,
         0x57cfd44d59739089, 0xedc348c8524b29d9, 0xfdc8f0554a3f1563,
         true},
    };
    for (const Golden &g : table) {
        SCOPED_TRACE(std::string(rigs::walName(g.wal)) +
                     (g.gc ? " gc=on" : " gc=off") +
                     (g.burstyRebalance ? " bursty-rebalance" : ""));
        ClusterConfig cfg = smallFleet();
        if (g.burstyRebalance) {
            cfg = rebalancingFleet(Sharding::hash);
            cfg.arrival.kind = sim::ArrivalSpec::Kind::bursty;
            cfg.arrival.burstSize = 4;
            cfg.arrival.burstGap = sim::usOf(5);
        }
        cfg.wal = g.wal;
        cfg.gc = g.gc;
        Cluster c(cfg);
        c.run();
        EXPECT_EQ(c.stateDigest(), g.digest);
        EXPECT_EQ(fnv1a(c.metricsJson()), g.metricsHash);
        EXPECT_EQ(fnv1a(c.sloJson()), g.sloHash);
    }
}

TEST(Cluster, RejectsBadConfigurations)
{
    ClusterConfig none;
    none.shards = 0;
    EXPECT_THROW(Cluster c(none), sim::SimFatal);

    ClusterConfig badTo = rebalancingFleet(Sharding::hash);
    badTo.moveTo = badTo.shards;
    EXPECT_THROW(Cluster c(badTo), sim::SimFatal);

    ClusterConfig badInterval = rebalancingFleet(Sharding::hash);
    badInterval.moveBegin256 = 64;
    badInterval.moveEnd256 = 64;
    EXPECT_THROW(Cluster c(badInterval), sim::SimFatal);

    // Shards run single-buffered BA-WALs, block WALs or replicated
    // single-buffered BA-WALs; every other rig kind is refused.
    for (WalKind wal : {WalKind::ba, WalKind::pm}) {
        SCOPED_TRACE(rigs::walName(wal));
        ClusterConfig badWal = smallFleet();
        badWal.wal = wal;
        EXPECT_THROW(Cluster c(badWal), sim::SimFatal);
    }
}

namespace
{

/** Payload byte pattern the workload writes for @p key. */
std::vector<std::uint8_t>
patternFor(std::uint64_t key, std::size_t bytes)
{
    std::vector<std::uint8_t> v(bytes);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<std::uint8_t>(key + i);
    return v;
}

/**
 * Run @p cfg at @p threads, plant entries through the shard stores,
 * and return verifyConsistency()'s panic text ("" if it passed).
 * Each plant is (key, corrupt byte or -1, true = on a wrong shard).
 */
std::string
verifyTextAfterPlanting(ClusterConfig cfg, unsigned threads,
                        const std::vector<std::tuple<std::uint64_t, int,
                                                     bool>> &plants)
{
    cfg.engineThreads = threads;
    Cluster c(cfg);
    c.run();
    c.verifyConsistency(); // clean before planting
    for (const auto &[key, corruptByte, wrongShard] : plants) {
        auto value = patternFor(key, cfg.valueBytes);
        if (corruptByte >= 0)
            value[static_cast<std::size_t>(corruptByte)] ^= 0x5a;
        const unsigned owner = c.map().shardOf(key);
        c.plantEntry(wrongShard ? (owner + 1) % cfg.shards : owner, key,
                     value);
    }
    try {
        c.verifyConsistency();
    } catch (const sim::SimPanic &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Cluster, VerifyNamesTheSmallestMisplacedKey)
{
    // A wrong-shard key and two corrupt payloads; the misplaced key
    // has the smallest id, so it is the one named - at every thread
    // count, whatever order the shard hash maps walk in.
    const ClusterConfig cfg = smallFleet();
    const std::vector<std::tuple<std::uint64_t, int, bool>> plants = {
        {90, 3, false}, {20, -1, true}, {50, 0, false}, {80, -1, true}};
    const std::string serial = verifyTextAfterPlanting(cfg, 1, plants);
    Cluster probe(cfg);
    const unsigned owner = probe.map().shardOf(20);
    EXPECT_EQ(serial,
              "panic: cluster consistency: key 20 stored on shard " +
                  std::to_string((owner + 1) % cfg.shards) +
                  " but the map (" + probe.map().describe() +
                  ") owns it to shard " + std::to_string(owner));
    for (unsigned threads : {2u, 8u})
        EXPECT_EQ(verifyTextAfterPlanting(cfg, threads, plants), serial);
}

TEST(Cluster, VerifyNamesTheSmallestCorruptPayload)
{
    const ClusterConfig cfg = smallFleet();
    // Corrupt the smallest key on the LAST shard, and larger keys on
    // every other shard: a first-found walk in shard order would name
    // one of the larger ones.
    const Cluster probe(cfg);
    std::vector<std::tuple<std::uint64_t, int, bool>> plants;
    std::set<unsigned> covered;
    for (std::uint64_t k = 30; k < cfg.keySpace; ++k) {
        const unsigned owner = probe.map().shardOf(k);
        if (plants.empty() ? owner == cfg.shards - 1
                           : !covered.contains(owner)) {
            covered.insert(owner);
            plants.emplace_back(k, plants.empty() ? 9 : 2, false);
        }
    }
    ASSERT_EQ(plants.size(), cfg.shards);
    const std::uint64_t smallest = std::get<0>(plants.front());
    const std::string serial = verifyTextAfterPlanting(cfg, 1, plants);
    EXPECT_EQ(serial, "panic: cluster consistency: key " +
                          std::to_string(smallest) + " on shard " +
                          std::to_string(cfg.shards - 1) +
                          " has corrupt payload byte 9");
    for (unsigned threads : {2u, 8u})
        EXPECT_EQ(verifyTextAfterPlanting(cfg, threads, plants), serial);
}

TEST(Cluster, VerifyFlagsKeysOutsideTheKeySpace)
{
    const ClusterConfig cfg = smallFleet();
    Cluster c(cfg);
    c.run();
    c.plantEntry(2, 5000, patternFor(5000, cfg.valueBytes));
    c.plantEntry(1, 1000, patternFor(1000, cfg.valueBytes));
    try {
        c.verifyConsistency();
        ADD_FAILURE() << "verifyConsistency() passed";
    } catch (const sim::SimPanic &e) {
        EXPECT_STREQ(e.what(), "panic: cluster consistency: key 1000 on "
                               "shard 1 lies outside the key space 96");
    }
}
