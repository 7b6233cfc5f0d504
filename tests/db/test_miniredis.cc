/**
 * @file
 * Tests for miniredis: command semantics, AOF replay, AOF rewrite,
 * and the hashed, prefetched command path against the string API.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "ba/two_b_ssd.hh"
#include "db/miniredis/miniredis.hh"
#include "sim/rng.hh"
#include "ssd/ssd_device.hh"
#include "wal/ba_wal.hh"
#include "wal/block_wal.hh"

using namespace bssd;
using namespace bssd::db::miniredis;

namespace
{

std::vector<std::uint8_t>
val(const std::string &s)
{
    return {s.begin(), s.end()};
}

wal::BlockWalConfig
tinyAof()
{
    wal::BlockWalConfig c;
    c.regionBytes = 512 * sim::KiB;
    return c;
}

} // namespace

TEST(MiniRedis, SetGetDel)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = r.set(0, "name", val("redis"));
    std::optional<std::vector<std::uint8_t>> out;
    t = r.get(t, "name", &out);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, val("redis"));
    t = r.del(t, "name");
    r.get(t, "name", &out);
    EXPECT_FALSE(out.has_value());
}

TEST(MiniRedis, IncrSequence)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = 0;
    std::int64_t v = 0;
    for (int i = 1; i <= 5; ++i) {
        t = r.incr(t, "counter", &v);
        EXPECT_EQ(v, i);
    }
    std::optional<std::vector<std::uint8_t>> out;
    r.get(t, "counter", &out);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, val("5"));
}

TEST(MiniRedis, AofReplayRestoresDataset)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWal aof(dev, tinyAof());
    MiniRedis r(aof);
    sim::Tick t = 0;
    for (int i = 0; i < 40; ++i)
        t = r.set(t, "k" + std::to_string(i), val("v" + std::to_string(i)));
    t = r.del(t, "k5");
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.keys(), 39u);
    EXPECT_FALSE(r.exists("k5"));
    std::optional<std::vector<std::uint8_t>> out;
    r.get(0, "k17", &out);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, val("v17"));
}

TEST(MiniRedis, AofRewriteCompactsAndRecovers)
{
    ssd::SsdDevice dev(ssd::SsdConfig::tiny());
    wal::BlockWalConfig cfg;
    cfg.regionBytes = 64 * sim::KiB; // rewrite early
    wal::BlockWal aof(dev, cfg);
    MiniRedis r(aof);
    sim::Tick t = 0;
    for (int i = 0; i < 900; ++i)
        t = r.set(t, "k" + std::to_string(i % 25),
                  val(std::string(100, 'x')));
    EXPECT_GT(r.aofRewrites(), 0u);
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.keys(), 25u);
}

TEST(MiniRedis, SingleBufferBaWalEndToEnd)
{
    // The paper's Redis port: whole BA-buffer as one AOF window, no
    // double buffering (single-threaded design respected).
    ba::BaConfig bc;
    bc.bufferBytes = 128 * sim::KiB;
    ba::TwoBSsd dev(ssd::SsdConfig::tiny(), bc);
    wal::BaWalConfig wc;
    wc.regionBytes = 512 * sim::KiB;
    wc.doubleBuffer = false;
    wal::BaWal aof(dev, wc);
    MiniRedis r(aof);
    sim::Tick t = sim::msOf(1);
    for (int i = 0; i < 200; ++i)
        t = r.set(t, "key" + std::to_string(i), val(std::string(80, 'y')));
    aof.crash(t);
    r.recover();
    EXPECT_EQ(r.keys(), 200u);
}

TEST(MiniRedis, CommandCostIncludesDurability)
{
    ssd::SsdDevice dev(ssd::SsdConfig::dcSsd());
    wal::BlockWal aof(dev, {});
    MiniRedis r(aof);
    sim::Tick t0 = 0;
    sim::Tick t1 = r.set(t0, "a", val("1"));
    // SET on a DC-SSD AOF: command CPU + write + fsync: tens of us.
    EXPECT_GT(t1 - t0, sim::usOf(20));
    sim::Tick t2 = r.get(t1, "a");
    // Reads skip the log entirely: command CPU only.
    EXPECT_LT(t2 - t1, sim::usOf(35));
    EXPECT_LT(2 * (t2 - t1), t1 - t0);
}

namespace
{

/** One store on its own device and AOF (region small enough that the
 *  stream below forces several rewrites). */
struct RedisRig
{
    ssd::SsdDevice dev{ssd::SsdConfig::tiny()};
    wal::BlockWal aof{dev, [] {
                          wal::BlockWalConfig c;
                          c.regionBytes = 64 * sim::KiB;
                          return c;
                      }()};
    MiniRedis r{aof};
};

struct Op
{
    enum Kind { set, del, incr, get } kind;
    std::string key;
    std::vector<std::uint8_t> value;
};

std::vector<Op>
randomOps(sim::Rng &rng, int n)
{
    const std::size_t sizes[] = {0, 1, 63, 64, 65, 1024};
    std::vector<Op> ops;
    for (int i = 0; i < n; ++i) {
        Op op;
        const std::uint64_t id = rng.nextBelow(160);
        op.key = id % 4 == 0 ? "a-key-past-the-inline-string-" +
                                   std::to_string(id)
                             : "k" + std::to_string(id);
        const double roll = rng.nextDouble();
        op.kind = roll < 0.45   ? Op::set
                  : roll < 0.60 ? Op::del
                  : roll < 0.75 ? Op::incr
                                : Op::get;
        if (op.kind == Op::set) {
            op.value.resize(sizes[rng.nextBelow(6)]);
            for (auto &b : op.value)
                b = static_cast<std::uint8_t>(rng.next());
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/** Every (key, value) of @p r, sorted. */
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
contents(const MiniRedis &r)
{
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
    r.forEachUnordered([&](const std::string &k,
                           std::span<const std::uint8_t> v) {
        out.emplace_back(k, std::vector<std::uint8_t>(v.begin(), v.end()));
    });
    std::sort(out.begin(), out.end());
    return out;
}

/** Run @p ops through the string API one command at a time. */
void
runPlain(MiniRedis &r, sim::Tick &t, const std::vector<Op> &ops,
         std::vector<sim::Tick> &done,
         std::vector<std::optional<std::vector<std::uint8_t>>> &reads)
{
    for (const Op &op : ops) {
        std::optional<std::vector<std::uint8_t>> out;
        switch (op.kind) {
          case Op::set: t = r.set(t, op.key, op.value); break;
          case Op::del: t = r.del(t, op.key); break;
          case Op::incr: t = r.incr(t, op.key); break;
          case Op::get: t = r.get(t, op.key, &out); break;
        }
        done.push_back(t);
        reads.push_back(std::move(out));
    }
}

/** Run @p ops as one batch the way a shard serves it: every key hashed
 *  once, its index slot prefetched 2D ahead and its entry D ahead. */
void
runHashed(MiniRedis &r, sim::Tick &t, const std::vector<Op> &ops,
          std::vector<sim::Tick> &done,
          std::vector<std::optional<std::vector<std::uint8_t>>> &reads)
{
    constexpr std::size_t D = 8;
    std::vector<MiniRedis::Key> keys;
    for (const Op &op : ops)
        keys.push_back(MiniRedis::keyOf(op.key));
    const std::size_t n = ops.size();
    for (std::size_t j = 0; j < std::min(2 * D, n); ++j)
        r.prefetchSlot(keys[j]);
    for (std::size_t j = 0; j < std::min(D, n); ++j)
        r.prefetchEntry(keys[j]);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + 2 * D < n)
            r.prefetchSlot(keys[i + 2 * D]);
        if (i + D < n)
            r.prefetchEntry(keys[i + D]);
        const Op &op = ops[i];
        std::optional<std::vector<std::uint8_t>> out;
        switch (op.kind) {
          case Op::set: t = r.set(t, keys[i], op.value); break;
          case Op::del: t = r.del(t, keys[i]); break;
          case Op::incr: t = r.incr(t, keys[i]); break;
          case Op::get: t = r.get(t, keys[i], &out); break;
        }
        done.push_back(t);
        reads.push_back(std::move(out));
    }
}

void
expectSameStores(RedisRig &a, RedisRig &b)
{
    EXPECT_EQ(a.r.contentHash(), b.r.contentHash());
    EXPECT_EQ(a.r.keys(), b.r.keys());
    EXPECT_EQ(contents(a.r), contents(b.r));
    EXPECT_EQ(a.aof.recoverContents(), b.aof.recoverContents());
}

} // namespace

TEST(MiniRedis, HashedPrefetchedPathMatchesStringApi)
{
    // One random SET/DEL/INCR/GET stream over inline (0-64 B) and heap
    // (65, 1024 B) values, through the string API and through the
    // hashed, prefetched batch path: same completion ticks, reads, AOF
    // bytes and contents, across forced AOF rewrites and a crash.
    RedisRig a;
    RedisRig b;
    sim::Rng rng(2016);
    sim::Tick ta = 0;
    sim::Tick tb = 0;
    for (int phase = 0; phase < 2; ++phase) {
        for (int batch = 0; batch < 12; ++batch) {
            const auto ops = randomOps(rng, 256);
            std::vector<sim::Tick> da;
            std::vector<sim::Tick> db;
            std::vector<std::optional<std::vector<std::uint8_t>>> ra;
            std::vector<std::optional<std::vector<std::uint8_t>>> rb;
            runPlain(a.r, ta, ops, da, ra);
            runHashed(b.r, tb, ops, db, rb);
            ASSERT_EQ(da, db);
            ASSERT_EQ(ra, rb);
        }
        expectSameStores(a, b);
        // Power-cut both mid-history and replay their AOFs.
        a.aof.crash(ta);
        b.aof.crash(tb);
        a.r.recover();
        b.r.recover();
        expectSameStores(a, b);
    }
    EXPECT_GE(a.r.aofRewrites(), 3u);
    EXPECT_EQ(a.r.aofRewrites(), b.r.aofRewrites());
}
