/**
 * @file
 * Differential tests for the stores' incremental bookkeeping
 * (db::StoreLedger): the per-mutation content digest and the
 * pre-image journal that stands in for the AOF-rewrite / checkpoint
 * snapshot. Random op streams run against std::map oracles, with
 * forced rewrites/checkpoints (a small log region), lost commits and
 * crash/recover at random points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "db/store_ledger.hh"
#include "sim/rng.hh"
#include "wal/log_device.hh"

using namespace bssd;

namespace
{

using Bytes = std::vector<std::uint8_t>;

/**
 * In-memory log with a tiny region: appends stage, commit() makes the
 * stage durable unless the test armed loseNextCommit (a power cut
 * that hit the in-flight commit), crash() drops the stage.
 */
class MemLog : public wal::LogDevice
{
  public:
    explicit MemLog(std::size_t regionBytes) : region_(regionBytes) {}

    sim::Tick
    append(sim::Tick now, std::span<const std::uint8_t> rec) override
    {
        staged_.insert(staged_.end(), rec.begin(), rec.end());
        appended_ += rec.size();
        return now;
    }

    sim::Tick
    commit(sim::Tick now) override
    {
        if (loseNextCommit)
            loseNextCommit = false;
        else
            durable_.insert(durable_.end(), staged_.begin(), staged_.end());
        staged_.clear();
        return now + sim::usOf(1);
    }

    void crash(sim::Tick) override { staged_.clear(); }
    std::vector<std::uint8_t> recoverContents() override { return durable_; }
    std::string name() const override { return "mem"; }
    std::uint64_t bytesAppended() const override { return appended_; }
    std::uint64_t bytesToStore() const override { return appended_; }

    bool
    needsCheckpoint() const override
    {
        return durable_.size() + staged_.size() >= region_;
    }

    void
    truncate(sim::Tick) override
    {
        durable_.clear();
        staged_.clear();
    }

    /** The next commit reaches no media (the op is never acked). */
    bool loseNextCommit = false;

  private:
    std::size_t region_;
    Bytes staged_;
    Bytes durable_;
    std::uint64_t appended_ = 0;
};

std::span<const std::uint8_t>
bytesOf(const std::string &s)
{
    return {reinterpret_cast<const std::uint8_t *>(s.data()), s.size()};
}

// ---------------------------------------------------------------------
// miniredis

using RedisModel = std::map<std::string, std::string>;

/** From-scratch recomputation of the multiset digest. */
std::uint64_t
digestOf(const RedisModel &m)
{
    std::uint64_t h = 0;
    for (const auto &[k, v] : m)
        h += db::entryHash(k, bytesOf(v));
    return h;
}

/**
 * The pre-multiset content digest: FNV-1a over key/value bytes in
 * sorted key order. Kept as the oracle that the multiset digest
 * identifies exactly the same contents.
 */
std::uint64_t
sortedFnv(const db::miniredis::MiniRedis &r)
{
    std::map<std::string, Bytes> sorted;
    r.forEachUnordered(
        [&](const std::string &k, std::span<const std::uint8_t> v) {
            sorted.emplace(k, Bytes(v.begin(), v.end()));
        });
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](const std::uint8_t *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &[k, v] : sorted) {
        mix(reinterpret_cast<const std::uint8_t *>(k.data()), k.size());
        mix(v.data(), v.size());
    }
    return h;
}

void
expectRedisEquals(const db::miniredis::MiniRedis &r, const RedisModel &m,
                  const std::string &where)
{
    ASSERT_EQ(r.keys(), m.size()) << where;
    for (const auto &[k, v] : m) {
        std::optional<Bytes> got;
        r.get(0, k, &got);
        ASSERT_TRUE(got.has_value()) << where << ": lost " << k;
        ASSERT_EQ(std::string(got->begin(), got->end()), v)
            << where << ": " << k;
    }
    ASSERT_EQ(r.contentHash(), digestOf(m)) << where;
}

std::int64_t
parsedCounter(const RedisModel &m, const std::string &key)
{
    std::int64_t v = 0;
    if (auto it = m.find(key); it != m.end())
        std::from_chars(it->second.data(),
                        it->second.data() + it->second.size(), v);
    return v;
}

} // namespace

TEST(MiniRedisLedger, DifferentialAgainstOracleWithRewritesAndCrashes)
{
    std::uint64_t recoversBeforeFirstRewrite = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        sim::Rng rng(seed);
        MemLog aof(1536);
        db::miniredis::MiniRedis r(aof);
        // live: every op the store applied; durable: the rewrite-time
        // dataset plus every op whose commit reached the log.
        RedisModel live, durable;
        sim::Tick t = 0;
        std::uint64_t recovers = 0;
        for (int step = 0; step < 600; ++step) {
            const std::string where =
                "seed " + std::to_string(seed) + " step " +
                std::to_string(step);
            const std::string key = "k" + std::to_string(rng.nextBelow(20));
            const bool lose = rng.chance(0.05);
            aof.loseNextCommit = lose;
            const std::uint64_t rewrites = r.aofRewrites();
            const std::uint64_t kind = rng.nextBelow(10);
            std::optional<std::string> value; // nullopt = deleted
            if (kind < 6) {
                value = std::string(rng.nextBelow(120),
                                    static_cast<char>('a' + step % 26));
                t = r.set(t, key, bytesOf(*value));
            } else if (kind < 8) {
                t = r.del(t, key);
            } else {
                std::int64_t got = 0;
                const std::int64_t want = parsedCounter(live, key) + 1;
                t = r.incr(t, key, &got);
                ASSERT_EQ(got, want) << where;
                value = std::to_string(want);
            }
            for (RedisModel *m : {&live, &durable}) {
                if (m == &durable && lose)
                    continue;
                if (value)
                    (*m)[key] = *value;
                else
                    m->erase(key);
            }
            if (r.aofRewrites() != rewrites)
                durable = live; // the rewrite snapshots the dataset
            if (r.aofRewrites() == 0) // nothing to undo to but empty
                ASSERT_EQ(r.journalSize(), 0u) << where;
            expectRedisEquals(r, live, where);
            ASSERT_FALSE(HasFatalFailure());

            if (rng.chance(0.06) || lose) {
                // Power cut, sometimes twice in a row.
                const int cuts = rng.chance(0.3) ? 2 : 1;
                for (int c = 0; c < cuts; ++c) {
                    aof.crash(t);
                    r.recover();
                    ++recovers;
                    recoversBeforeFirstRewrite += r.aofRewrites() == 0;
                    expectRedisEquals(r, durable,
                                      where + " after recover");
                    ASSERT_FALSE(HasFatalFailure());
                }
                live = durable;
            }
        }
        EXPECT_GT(r.aofRewrites(), 5u) << "seed " << seed;
        EXPECT_GT(recovers, 20u) << "seed " << seed;
    }
    EXPECT_GT(recoversBeforeFirstRewrite, 3u);
}

TEST(MiniRedisLedger, RecoverBeforeFirstRewriteJournalsNothing)
{
    MemLog aof(1 << 20);
    db::miniredis::MiniRedis r(aof);
    sim::Tick t = 0;
    for (int i = 0; i < 50; ++i)
        t = r.set(t, "k" + std::to_string(i % 7), bytesOf("v" + std::to_string(i)));
    t = r.del(t, "k3");
    EXPECT_EQ(r.aofRewrites(), 0u);
    EXPECT_EQ(r.journalSize(), 0u);
    const std::uint64_t before = r.contentHash();
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.keys(), 6u);
    EXPECT_EQ(r.contentHash(), before);
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.contentHash(), before);
}

TEST(MiniRedisLedger, MultisetDigestAgreesWithSortedFnvOracle)
{
    // Targets drawn from a tiny universe so many coincide; each is
    // built twice, in different insertion orders and through
    // different overwrite/delete histories.
    sim::Rng rng(7);
    std::vector<std::unique_ptr<MemLog>> logs;
    std::vector<std::unique_ptr<db::miniredis::MiniRedis>> stores;
    for (int target = 0; target < 40; ++target) {
        RedisModel want;
        const std::uint64_t n = rng.nextBelow(4);
        for (std::uint64_t i = 0; i < n; ++i) {
            want["k" + std::to_string(rng.nextBelow(4))] =
                std::string(1 + rng.nextBelow(2),
                            static_cast<char>('a' + rng.nextBelow(2)));
        }
        std::vector<std::pair<std::string, std::string>> order(
            want.begin(), want.end());
        for (int copy = 0; copy < 2; ++copy) {
            logs.push_back(std::make_unique<MemLog>(1 << 20));
            stores.push_back(
                std::make_unique<db::miniredis::MiniRedis>(*logs.back()));
            auto &r = *stores.back();
            sim::Tick t = 0;
            if (copy == 1) {
                std::reverse(order.begin(), order.end());
                t = r.set(t, "junk", bytesOf("x"));
                for (const auto &[k, v] : order)
                    t = r.set(t, k, bytesOf(v + "stale"));
            }
            for (const auto &[k, v] : order)
                t = r.set(t, k, bytesOf(v));
            if (copy == 1)
                t = r.del(t, "junk");
            EXPECT_EQ(r.contentHash(), digestOf(want));
        }
    }
    int equalPairs = 0, differentPairs = 0;
    for (std::size_t a = 0; a < stores.size(); ++a) {
        for (std::size_t b = a + 1; b < stores.size(); ++b) {
            const bool sameFnv = sortedFnv(*stores[a]) == sortedFnv(*stores[b]);
            const bool sameSum =
                stores[a]->contentHash() == stores[b]->contentHash();
            EXPECT_EQ(sameFnv, sameSum) << "stores " << a << ", " << b;
            (sameFnv ? equalPairs : differentPairs)++;
        }
    }
    EXPECT_GT(equalPairs, 40);
    EXPECT_GT(differentPairs, 40);
}

// ---------------------------------------------------------------------
// minipg

namespace
{

struct PgModel
{
    std::map<std::uint64_t, Bytes> nodes;
    std::map<db::minipg::LinkKey, Bytes> links;
};

void
expectPgEquals(const db::minipg::MiniPg &pg, const PgModel &m,
               const std::string &where)
{
    ASSERT_EQ(pg.nodeCount(), m.nodes.size()) << where;
    ASSERT_EQ(pg.linkCount(), m.links.size()) << where;
    std::uint64_t h = 0;
    for (const auto &[id, v] : m.nodes) {
        Bytes got;
        ASSERT_TRUE(pg.hasNode(id)) << where << ": lost node " << id;
        pg.getNode(0, id, &got);
        ASSERT_EQ(got, v) << where << ": node " << id;
        h += db::entryHash(id, v);
    }
    for (const auto &[k, v] : m.links) {
        Bytes got;
        ASSERT_TRUE(pg.hasLink(k)) << where << ": lost link";
        pg.getLink(0, k, &got);
        ASSERT_EQ(got, v) << where;
        h += db::minipg::entryHash(k, v);
    }
    ASSERT_EQ(pg.contentHash(), h) << where;
}

} // namespace

TEST(MiniPgLedger, DifferentialAgainstOracleWithCheckpointsAndCrashes)
{
    using db::minipg::LinkKey;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Rng rng(100 + seed);
        MemLog log(2048);
        db::minipg::MiniPg pg(log);
        PgModel live, durable;
        sim::Tick t = 0;
        for (int step = 0; step < 500; ++step) {
            const std::string where =
                "seed " + std::to_string(seed) + " step " +
                std::to_string(step);
            const bool lose = rng.chance(0.05);
            log.loseNextCommit = lose;
            const std::uint64_t checkpoints = pg.checkpoints();
            PgModel next = live;
            auto txn = pg.begin();
            const std::uint64_t ops = rng.chance(0.3) ? 3 : 1;
            for (std::uint64_t i = 0; i < ops; ++i) {
                const std::uint64_t id = rng.nextBelow(16);
                const LinkKey lk{rng.nextBelow(4),
                                 static_cast<std::uint32_t>(rng.nextBelow(2)),
                                 rng.nextBelow(4)};
                Bytes payload(rng.nextBelow(80),
                              static_cast<std::uint8_t>(step));
                switch (rng.nextBelow(4)) {
                  case 0:
                    t = txn.updateNode(t, id, payload);
                    next.nodes[id] = payload;
                    break;
                  case 1:
                    t = txn.deleteNode(t, id);
                    next.nodes.erase(id);
                    break;
                  case 2:
                    t = txn.addLink(t, lk, payload);
                    next.links[lk] = payload;
                    break;
                  default:
                    t = txn.deleteLink(t, lk);
                    next.links.erase(lk);
                }
            }
            t = txn.commit(t);
            live = next;
            if (!lose)
                durable = next;
            if (pg.checkpoints() != checkpoints)
                durable = live;
            expectPgEquals(pg, live, where);
            ASSERT_FALSE(HasFatalFailure());

            if (rng.chance(0.06) || lose) {
                const int cuts = rng.chance(0.3) ? 2 : 1;
                for (int c = 0; c < cuts; ++c) {
                    log.crash(t);
                    pg.recover();
                    expectPgEquals(pg, durable, where + " after recover");
                    ASSERT_FALSE(HasFatalFailure());
                }
                live = durable;
            }
        }
        EXPECT_GT(pg.checkpoints(), 5u) << "seed " << seed;
    }
}

TEST(StoreLedger, RollBackRestoresSnapshotAndDigest)
{
    std::map<std::uint64_t, Bytes> m;
    db::StoreLedger<decltype(m)> ledger(m);
    const Bytes a{1, 2, 3}, b{4}, c{};
    ledger.put(1, a);
    ledger.put(2, b);
    EXPECT_EQ(ledger.journalSize(), 0u); // no snapshot yet
    ledger.snapshot();
    const auto snap = m;
    const std::uint64_t snapDigest = ledger.digest();
    ledger.put(1, b);   // overwrite
    ledger.erase(2);    // delete
    ledger.put(3, c);   // insert
    ledger.put(3, a);   // overwrite an insert made since the snapshot
    ledger.erase(3);
    ledger.erase(42);   // absent: no journal entry
    EXPECT_EQ(ledger.journalSize(), 5u);
    EXPECT_NE(ledger.digest(), snapDigest);
    ledger.rollBack();
    EXPECT_EQ(m, snap);
    EXPECT_EQ(ledger.digest(), snapDigest);
    EXPECT_EQ(ledger.journalSize(), 0u);
    ledger.rollBack(); // idempotent
    EXPECT_EQ(m, snap);

    std::map<std::uint64_t, Bytes> fresh;
    db::StoreLedger<decltype(fresh)> empty(fresh);
    empty.put(9, a);
    empty.rollBack(); // before any snapshot: back to the empty map
    EXPECT_TRUE(fresh.empty());
    EXPECT_EQ(empty.digest(), 0u);
}

TEST(StoreLedger, EntryHashSeparatesKeyAndValueBytes)
{
    const Bytes ab{'a', 'b'}, c{'c'}, a{'a'}, bc{'b', 'c'}, none{};
    EXPECT_NE(db::entryHash(ab, c), db::entryHash(a, bc));
    EXPECT_NE(db::entryHash(ab, none), db::entryHash(a, Bytes{'b'}));
    EXPECT_NE(db::entryHash(std::uint64_t{1}, none),
              db::entryHash(std::uint64_t{2}, none));
    // Words and tails: lengths 0..17 around the 8-byte step all differ.
    std::vector<std::uint64_t> seen;
    for (std::size_t n = 0; n < 18; ++n)
        seen.push_back(db::entryHash(Bytes(n, 0), none));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}
