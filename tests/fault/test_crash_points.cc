/**
 * @file
 * Exhaustive crash-point durability campaign (ISSUE tentpole).
 *
 * For every (engine, durable WAL) cell the harness enumerates every
 * durability tracepoint hit of a fixed op stream, crashes at a dense
 * sample of them (>= 100 distinct points per cell), recovers, and
 * requires the recovered state to equal an acknowledged op-stream
 * prefix - the paper's "no risk of data loss" claim checked at every
 * protocol stage instead of one random point per seed.
 *
 * Also here: the bit-identical determinism contract (same seed + same
 * plan => same hit log, same crash points, same outcomes) and the
 * campaign re-run under layered component faults (NAND program
 * failures; degraded capacitors with reported-loss semantics).
 */

#include <gtest/gtest.h>

#include <string>

#include "rigs/crash_harness.hh"
#include "sim/logging.hh"

using namespace bssd;
using campaign::CellConfig;
using campaign::CellResult;
using campaign::PgAdapter;
using campaign::RedisAdapter;
using rigs::WalKind;
using rigs::walName;

namespace
{

/** Assert a finished cell met the campaign's coverage + safety bar. */
void
checkCell(const CellResult &res, const char *engine, WalKind wal,
          std::uint64_t seed)
{
    const std::string cell = std::string(engine) + " x " + walName(wal) +
                             " seed " + std::to_string(seed);
    EXPECT_GE(res.enumeratedHits, 100u)
        << cell << ": op stream too quiet to qualify as a campaign";
    EXPECT_GE(res.pointsTested, 100u) << cell;
    EXPECT_EQ(res.pointsSurvived, res.pointsTested) << cell;
    for (const auto &f : res.failures)
        ADD_FAILURE() << cell << " crash point " << f.point << ": "
                      << f.detail;
}

class RedisCrashPoints : public ::testing::TestWithParam<WalKind>
{};

class PgCrashPoints : public ::testing::TestWithParam<WalKind>
{};

/**
 * GC-campaign cell (ISSUE 4 satellite): drive a long op stream against
 * the shrunken gcSpec rig so incremental background GC runs
 * continuously, then arm power cuts specifically at the new GC
 * tracepoints - mid-relocation (ftl.gcStep) and at the erase handoff
 * (ftl.gcErase, where an in-flight erase may sit suspended under a
 * prioritized read). The acknowledged-prefix invariant must hold at
 * every one: background relocation only ever moves already-durable
 * pages, so a cut mid-step can never lose acknowledged data.
 */
template <typename A>
void
runGcCampaign(WalKind wal, std::uint64_t seed, std::size_t opCount,
              std::size_t maxPoints)
{
    const rigs::RigSpec spec = rigs::gcSpec(wal);
    const auto ops = A::makeOps(seed, opCount);
    sim::FaultPlan plan;
    plan.seed = seed;

    std::vector<sim::Tp> log;
    campaign::countHits<A>(spec, ops, plan, &log);

    // The enumeration itself must be bit-identical across runs; every
    // sampled crash point below relies on hit index k meaning the same
    // protocol instant in a fresh rig.
    std::vector<sim::Tp> log2;
    campaign::countHits<A>(spec, ops, plan, &log2);
    ASSERT_EQ(log, log2) << "GC-cell hit enumeration is not stable";

    std::vector<std::uint64_t> gcPoints;
    std::uint64_t steps = 0;
    std::uint64_t erases = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i] == sim::Tp::ftlGcStep) {
            ++steps;
            gcPoints.push_back(i);
        } else if (log[i] == sim::Tp::ftlGcErase) {
            ++erases;
            gcPoints.push_back(i);
        }
    }
    ASSERT_GT(steps, 0u)
        << walName(wal)
        << ": background GC never stepped; the gcSpec rig is too large "
           "or the stream too short for a meaningful campaign";
    EXPECT_GT(erases, 0u)
        << walName(wal) << ": no GC erase reached inside the stream";

    std::size_t stride = 1;
    if (maxPoints && gcPoints.size() > maxPoints)
        stride = gcPoints.size() / maxPoints;
    std::size_t tested = 0;
    for (std::size_t i = 0; i < gcPoints.size(); i += stride) {
        const std::uint64_t k = gcPoints[i];
        auto o = campaign::runPoint<A>(spec, ops, plan, k);
        ++tested;
        EXPECT_TRUE(o.survived && o.detail.empty())
            << A::name << " x " << walName(wal) << " GC crash point "
            << k << " (" << sim::tpName(log[static_cast<std::size_t>(k)])
            << "): " << o.detail;
    }
    EXPECT_GT(tested, 0u);
    std::printf("[ gc-cell  ] %s x %s: %llu gc steps, %llu gc erases, "
                "%zu crash points tested\n",
                A::name, walName(wal),
                static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(erases), tested);
}

/** splitmix64 finalizer - the key-hash discipline of cluster routing,
 *  reproduced here so the replicated cells see hash-routed streams. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * One shard's share of a cluster op stream under the two routing
 * disciplines: key-hash (shard = mix64(id) % 4) or contiguous range
 * (shard = id / 6 over the 24-key space). Replication runs below the
 * router, so the replicated campaign's cells are "whatever op stream
 * one shard actually sees" - and the two disciplines produce genuinely
 * different streams from the same seed.
 */
std::vector<RedisAdapter::Op>
shardRoutedOps(std::uint64_t seed, bool hashRouted)
{
    const auto all = RedisAdapter::makeOps(seed, 280);
    std::vector<RedisAdapter::Op> out;
    for (const auto &op : all) {
        const std::uint64_t id = std::stoull(op.key.substr(1));
        const std::uint64_t shard = hashRouted ? mix64(id) % 4 : id / 6;
        if (shard == 1)
            out.push_back(op);
    }
    return out;
}

/**
 * Replication crash campaign (ISSUE 7 satellite): enumerate the
 * repl.ship / repl.ack hits of a replicated cell and cut the primary's
 * power BEFORE the ship (the hit preceding repl.ship), DURING it (the
 * repl.ship edge itself - the batch is still primary-only), and AFTER
 * it (the repl.ack edge - the follower is already durable but the ack
 * is lost). Every cut must leave the promoted follower recovering the
 * acknowledged prefix, bit-identically on rerun.
 */
void
runReplicationCampaign(const std::vector<RedisAdapter::Op> &ops,
                       std::uint64_t seed, const std::string &cell)
{
    const rigs::RigSpec spec = rigs::tinySpec(WalKind::baRepl);
    sim::FaultPlan plan;
    plan.seed = seed;

    std::vector<sim::Tp> log;
    campaign::countHits<RedisAdapter>(spec, ops, plan, &log);

    std::vector<std::uint64_t> points;
    std::uint64_t ships = 0;
    std::uint64_t acks = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i] == sim::Tp::replShip) {
            ++ships;
            if (i > 0)
                points.push_back(i - 1); // before the ship
            points.push_back(i);         // during (batch primary-only)
        } else if (log[i] == sim::Tp::replAck) {
            ++acks;
            points.push_back(i); // after (follower durable, ack lost)
        }
    }
    ASSERT_GT(ships, 0u) << cell << ": stream never shipped a batch";
    ASSERT_EQ(ships, acks) << cell << ": unacked ship in a clean run";

    // Bound the sweep; keep first and last so both the cold start and
    // the deep-log end of the stream stay covered.
    constexpr std::size_t maxPoints = 48;
    std::size_t stride = 1;
    if (points.size() > maxPoints)
        stride = points.size() / maxPoints;
    std::size_t tested = 0;
    for (std::size_t i = 0; i < points.size(); i += stride) {
        const std::uint64_t k = points[i];
        auto o = campaign::runPoint<RedisAdapter>(spec, ops, plan, k);
        ++tested;
        EXPECT_TRUE(o.survived && o.detail.empty())
            << cell << " replication crash point " << k << " ("
            << sim::tpName(log[static_cast<std::size_t>(k)])
            << "): " << o.detail;

        // Bit-identical rerun: the same point must recover to the same
        // prefix, or the repro line is worthless.
        auto o2 = campaign::runPoint<RedisAdapter>(spec, ops, plan, k);
        EXPECT_EQ(o.matchedPrefix, o2.matchedPrefix)
            << cell << " point " << k << " recovered differently on rerun";
    }
    std::printf("[ repl-cell] %s: %llu ships, %zu crash points tested\n",
                cell.c_str(), static_cast<unsigned long long>(ships),
                tested);
}

} // namespace

TEST_P(RedisCrashPoints, EveryPointRecoversToAckedPrefix)
{
    const WalKind wal = GetParam();
    const std::uint64_t seed = 1;
    CellResult res = campaign::runCell<RedisAdapter>(wal, seed);
    checkCell(res, "redis", wal, seed);
}

TEST_P(PgCrashPoints, EveryPointRecoversToAckedPrefix)
{
    const WalKind wal = GetParam();
    const std::uint64_t seed = 1;
    CellResult res = campaign::runCell<PgAdapter>(wal, seed);
    checkCell(res, "pg", wal, seed);
}

INSTANTIATE_TEST_SUITE_P(
    DurableWals, RedisCrashPoints,
    ::testing::ValuesIn(campaign::durableWals()),
    [](const auto &info) { return std::string(walName(info.param)); });

INSTANTIATE_TEST_SUITE_P(
    DurableWals, PgCrashPoints,
    ::testing::ValuesIn(campaign::durableWals()),
    [](const auto &info) { return std::string(walName(info.param)); });

TEST(ReplicationCrashCampaign, HashRoutedShardRecoversAroundShip)
{
    runReplicationCampaign(shardRoutedOps(3, true), 3, "ba_repl x hash");
}

TEST(ReplicationCrashCampaign, RangeRoutedShardRecoversAroundShip)
{
    runReplicationCampaign(shardRoutedOps(3, false), 3,
                           "ba_repl x range");
}

TEST(GcCrashCampaign, RedisBlockWalRecoversAtGcTracepoints)
{
    runGcCampaign<RedisAdapter>(WalKind::block, 11, 2000, 24);
}

TEST(GcCrashCampaign, PgBaWalRecoversAtGcTracepoints)
{
    runGcCampaign<PgAdapter>(WalKind::ba, 11, 2000, 24);
}

/** Same seed + same plan => bit-identical hit sequence and outcomes. */
TEST(CrashCampaignDeterminism, CellRunsAreBitIdentical)
{
    CellConfig cc;
    cc.maxPoints = 40; // depth is the other tests' job
    CellResult a = campaign::runCell<RedisAdapter>(WalKind::ba, 42, cc);
    CellResult b = campaign::runCell<RedisAdapter>(WalKind::ba, 42, cc);

    EXPECT_EQ(a.enumeratedHits, b.enumeratedHits);
    ASSERT_EQ(a.hitLog.size(), b.hitLog.size());
    for (std::size_t i = 0; i < a.hitLog.size(); ++i)
        ASSERT_EQ(a.hitLog[i], b.hitLog[i]) << "hit " << i << " diverged";
    EXPECT_EQ(a.pointsTested, b.pointsTested);
    EXPECT_EQ(a.pointsSurvived, b.pointsSurvived);
    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i)
        EXPECT_EQ(a.failures[i].point, b.failures[i].point);

    // A different seed is a different stream (or at least a different
    // schedule): the hit logs must not be forced equal by accident.
    CellResult c = campaign::runCell<RedisAdapter>(WalKind::ba, 43, cc);
    EXPECT_NE(a.hitLog, c.hitLog);
}

/** The enumeration runs record tracepoints from more than one layer -
 *  the campaign really sweeps the whole stack, not a single choke
 *  point. */
TEST(CrashCampaignCoverage, HitLogSpansMultipleLayers)
{
    const auto ops = RedisAdapter::makeOps(7);
    sim::FaultPlan plan;
    plan.seed = 7;
    std::vector<sim::Tp> log;
    campaign::countHits<RedisAdapter>(WalKind::ba, ops, plan, &log);

    std::array<bool, sim::tpCount> seen{};
    for (sim::Tp tp : log)
        seen[static_cast<std::size_t>(tp)] = true;
    EXPECT_TRUE(seen[static_cast<std::size_t>(sim::Tp::wcFlush)]);
    EXPECT_TRUE(seen[static_cast<std::size_t>(sim::Tp::pciePosted)]);
    EXPECT_TRUE(seen[static_cast<std::size_t>(sim::Tp::pcieVerify)]);
    EXPECT_TRUE(seen[static_cast<std::size_t>(sim::Tp::baSync)]);
    EXPECT_TRUE(seen[static_cast<std::size_t>(sim::Tp::nandProgram)]);
}

/** Crash sweep with NAND program failures layered underneath: the FTL
 *  retires grown-bad blocks and remaps mid-stream, and recovery still
 *  lands on an acknowledged prefix at every crash point. */
TEST(CrashCampaignWithFaults, NandProgramFailuresDoNotBreakInvariant)
{
    CellConfig cc;
    cc.maxPoints = 40;
    cc.plan.nandProgramFailRate = 0.05;
    CellResult res = campaign::runCell<RedisAdapter>(WalKind::block, 5, cc);
    EXPECT_GT(res.pointsTested, 0u);
    EXPECT_EQ(res.pointsSurvived, res.pointsTested);
    for (const auto &f : res.failures)
        ADD_FAILURE() << "crash point " << f.point << ": " << f.detail;
}

/** Crash sweep with degraded capacitors: the BA dump may lose the
 *  buffer, but the loss is always REPORTED, and the recovered state is
 *  still some op-stream prefix (never corrupt, never silently short). */
TEST(CrashCampaignWithFaults, DegradedCapacitorsLoseOnlyReportedly)
{
    CellConfig cc;
    cc.maxPoints = 40;
    // Budget far below the tiny rig's full-dump energy: the dump
    // cannot complete, so every crash point exercises the
    // reported-loss path.
    cc.plan.capacitorEnergyScale = 0.001;
    sim::setLogQuiet(true); // every point logs the reported dump loss
    CellResult res = campaign::runCell<RedisAdapter>(WalKind::ba, 5, cc);
    sim::setLogQuiet(false);
    EXPECT_GT(res.pointsTested, 0u);
    EXPECT_EQ(res.pointsSurvived, res.pointsTested);
    EXPECT_GT(res.lossReported, 0u)
        << "expected at least one crash point to report dump loss";
    for (const auto &f : res.failures)
        ADD_FAILURE() << "crash point " << f.point << ": " << f.detail;
}
