/**
 * @file
 * db::FlatMap against a std::map oracle: random op streams over tiny
 * key spaces (dense probe runs), hand-placed probe runs across the
 * index wrap-around, erase of the last and of a middle entry, and
 * growth through several doublings. After every op the map must hold
 * exactly the oracle's contents, and iteration must visit exactly the
 * live set. The chunked entry layout is checked against a vector
 * model of entry order, db::Bytes through its size transitions, and
 * db::PageAllocator on both sides of its mapping threshold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/bytes.hh"
#include "db/flat_map.hh"
#include "db/page_allocator.hh"
#include "db/store_ledger.hh"
#include "sim/rng.hh"

using namespace bssd;
using db::FlatMap;

namespace
{

/**
 * A deliberately bad hash: four home slots. Key k % 4 == 0 hashes to
 * all-ones, whose home is the index's last slot at every table size,
 * so its probe runs wrap around to slot 0 where k % 4 == 1 lives.
 */
struct ClusteredHash
{
    std::uint32_t
    operator()(std::uint64_t k) const
    {
        return k % 4 == 0 ? ~std::uint32_t(0)
                          : static_cast<std::uint32_t>(k % 4 - 1);
    }
};

/** Each key's hash is given by the test: key -> hash. */
struct TableHash
{
    static inline std::map<std::uint64_t, std::uint32_t> table;
    std::uint32_t
    operator()(std::uint64_t k) const
    {
        return table.at(k);
    }
};

/** Contents and iteration of @p m must equal @p oracle exactly. */
template <class Map, class K, class V>
void
expectSame(const Map &m, const std::map<K, V> &oracle)
{
    ASSERT_EQ(m.size(), oracle.size());
    std::map<K, V> seen;
    for (const auto &[k, v] : m)
        ASSERT_TRUE(seen.emplace(k, v).second) << "visited twice: " << k;
    ASSERT_EQ(seen, oracle);
    for (const auto &[k, v] : oracle) {
        auto it = m.find(k);
        ASSERT_NE(it, m.end()) << "lost key " << k;
        ASSERT_EQ(it->second, v);
        ASSERT_TRUE(m.contains(k));
    }
}

/** Random try_emplace/find/erase/insert_or_assign/clear vs. a
 *  std::map, keys drawn from [0, keySpace). */
template <class Hash>
void
runDifferential(std::uint64_t seed, std::uint64_t keySpace, int ops,
                double clearRate)
{
    FlatMap<std::uint64_t, std::uint64_t, Hash> m;
    std::map<std::uint64_t, std::uint64_t> oracle;
    sim::Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t k = rng.nextBelow(keySpace);
        const std::uint64_t v = rng.next();
        const double roll = rng.nextDouble();
        if (roll < clearRate) {
            m.clear();
            oracle.clear();
        } else if (roll < 0.40) {
            auto [it, inserted] = m.try_emplace(k, v);
            auto [oit, oinserted] = oracle.try_emplace(k, v);
            ASSERT_EQ(inserted, oinserted);
            ASSERT_EQ(it->first, k);
            ASSERT_EQ(it->second, oit->second);
        } else if (roll < 0.60) {
            auto [it, inserted] = m.insert_or_assign(k, v);
            ASSERT_EQ(inserted, !oracle.contains(k));
            oracle[k] = v;
            ASSERT_EQ(it->second, v);
        } else if (roll < 0.90) {
            auto it = m.find(k);
            ASSERT_EQ(it != m.end(), oracle.contains(k));
            if (it != m.end()) {
                m.erase(it);
                oracle.erase(k);
            }
        } else {
            auto it = m.find(k);
            ASSERT_EQ(it != m.end(), oracle.contains(k));
            if (it != m.end()) {
                ASSERT_EQ(it->second, oracle.at(k));
            }
        }
        expectSame(m, oracle);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace

TEST(FlatMap, MatchesOracleOnCollidingTinyKeySpace)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        runDifferential<ClusteredHash>(seed, 14, 3000, 0.002);
}

TEST(FlatMap, MatchesOracleWithDefaultHash)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDifferential<db::FlatHash<std::uint64_t>>(seed, 40, 3000,
                                                     0.002);
}

TEST(FlatMap, GrowsThroughSeveralDoublings)
{
    // 5,000 distinct keys take the index from 16 slots to 8,192; erase
    // every third key afterwards and re-check.
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (std::uint64_t k = 0; k < 5000; ++k) {
        m.try_emplace(k * 7919, k);
        oracle.emplace(k * 7919, k);
    }
    expectSame(m, oracle);
    for (std::uint64_t k = 0; k < 5000; k += 3) {
        m.erase(m.find(k * 7919));
        oracle.erase(k * 7919);
    }
    expectSame(m, oracle);
}

TEST(FlatMap, StringKeys)
{
    FlatMap<std::string, std::vector<std::uint8_t>> m;
    std::map<std::string, std::vector<std::uint8_t>> oracle;
    sim::Rng rng(3);
    for (int op = 0; op < 2000; ++op) {
        const std::string k = "k" + std::to_string(rng.nextBelow(64));
        if (rng.chance(0.7)) {
            std::vector<std::uint8_t> v(rng.nextBelow(40),
                                        static_cast<std::uint8_t>(op));
            m.insert_or_assign(k, v);
            oracle[k] = v;
        } else if (auto it = m.find(k); it != m.end()) {
            m.erase(it);
            oracle.erase(k);
        }
    }
    expectSame(m, oracle);
}

TEST(FlatMap, EraseLastAndMiddleEntry)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (std::uint64_t k = 10; k < 15; ++k) {
        m.try_emplace(k, k * 100);
        oracle.emplace(k, k * 100);
    }
    // Erase the last entry (nothing moves), then a middle one (the
    // new last entry moves into its place and must stay findable).
    auto last = m.end() - 1;
    oracle.erase(last->first);
    m.erase(last);
    expectSame(m, oracle);
    auto middle = m.begin() + 1;
    oracle.erase(middle->first);
    m.erase(middle);
    expectSame(m, oracle);
    // And the first, down to empty.
    while (m.size() > 0) {
        oracle.erase(m.begin()->first);
        m.erase(m.begin());
        expectSame(m, oracle);
    }
}

TEST(FlatMap, BackwardShiftAcrossIndexWrapAround)
{
    // Keys 1-3 share the last slot as home (all-ones hash), so they
    // occupy last, 0, 1; key 4 is homed at slot 0 and lands at 2.
    // Erasing key 1 must pull 2 and 3 back across the wrap and key 4
    // back to its home; erasing key 2 then pulls key 3 to the last
    // slot. Every step must keep every survivor findable.
    TableHash::table = {{1, ~std::uint32_t(0)},
                        {2, ~std::uint32_t(0)},
                        {3, ~std::uint32_t(0)},
                        {4, 0},
                        {5, ~std::uint32_t(0) - 1}};
    FlatMap<std::uint64_t, std::uint64_t, TableHash> m;
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (std::uint64_t k : {1, 2, 3, 4, 5}) {
        m.try_emplace(k, k);
        oracle.emplace(k, k);
    }
    expectSame(m, oracle);
    for (std::uint64_t k : {1, 5, 2, 4, 3}) {
        m.erase(m.find(k));
        oracle.erase(k);
        expectSame(m, oracle);
        // A fresh insert reuses whatever slots the shifts freed.
        TableHash::table[k + 100] = ~std::uint32_t(0);
        m.try_emplace(k + 100, k);
        oracle.emplace(k + 100, k);
        expectSame(m, oracle);
    }
}

TEST(FlatMap, ClearKeepsWorking)
{
    FlatMap<std::uint64_t, std::uint64_t, ClusteredHash> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m.try_emplace(k, k);
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(5), m.end());
    m.try_emplace(5, 50);
    ASSERT_NE(m.find(5), m.end());
    EXPECT_EQ(m.find(5)->second, 50u);
    EXPECT_EQ(m.size(), 1u);
}

namespace
{

constexpr std::size_t kChunk =
    FlatMap<std::uint64_t, std::uint64_t>::kChunkEntries;

/**
 * The vector-backed layout FlatMap's chunks replaced, as a reference
 * model of entry order: inserts append, erase moves the last entry
 * into the hole.
 */
struct VectorModel
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    std::map<std::uint64_t, std::size_t> pos;

    /** @return whether @p k was inserted (absent before). */
    bool
    insert(std::uint64_t k, std::uint64_t v)
    {
        if (!pos.emplace(k, entries.size()).second)
            return false;
        entries.emplace_back(k, v);
        return true;
    }

    void
    erase(std::uint64_t k)
    {
        const std::size_t i = pos.at(k);
        pos.erase(k);
        if (i + 1 != entries.size()) {
            entries[i] = entries.back();
            pos[entries[i].first] = i;
        }
        entries.pop_back();
    }
};

template <class Map>
void
expectOrder(const Map &m, const VectorModel &model)
{
    ASSERT_EQ(m.size(), model.entries.size());
    std::size_t i = 0;
    for (const auto &[k, v] : m) {
        ASSERT_EQ(k, model.entries[i].first) << "entry " << i;
        ASSERT_EQ(v, model.entries[i].second) << "entry " << i;
        ++i;
    }
}

/** Counts live instances, so erase/clear/destruction leaks show. */
struct Counted
{
    static inline long live = 0;
    std::uint64_t v = 0;
    Counted() { ++live; }
    explicit Counted(std::uint64_t x) : v(x) { ++live; }
    Counted(const Counted &o) : v(o.v) { ++live; }
    Counted &operator=(const Counted &) = default;
    ~Counted() { --live; }
};

} // namespace

TEST(FlatMap, EraseLastIntoHoleAcrossChunkBoundary)
{
    // Three chunks' worth plus a partial fourth: erasing entries of
    // the first chunks pulls the last entry (in another chunk) into
    // each hole.
    FlatMap<std::uint64_t, std::uint64_t> m;
    VectorModel model;
    const std::uint64_t n = 3 * kChunk + 7;
    for (std::uint64_t k = 0; k < n; ++k) {
        m.try_emplace(k * 31, k);
        model.insert(k * 31, k);
    }
    expectOrder(m, model);
    for (std::uint64_t k : {std::uint64_t(5), std::uint64_t(kChunk - 1),
                            std::uint64_t(kChunk), std::uint64_t(2 * kChunk),
                            n - 1, std::uint64_t(0)}) {
        m.erase(m.find(k * 31));
        model.erase(k * 31);
        expectOrder(m, model);
        ASSERT_EQ(m.find(k * 31), m.end());
    }
    for (const auto &[k, v] : model.entries)
        ASSERT_EQ(m.find(k)->second, v);
}

TEST(FlatMap, InsertEraseThrashAtChunkBoundary)
{
    // Exactly one full chunk, then alternate an insert that opens the
    // next chunk with an erase that empties it again; every value
    // constructed is destroyed by erase, clear or the destructor.
    Counted::live = 0;
    {
        FlatMap<std::uint64_t, Counted> m;
        for (std::uint64_t k = 0; k < kChunk; ++k)
            m.try_emplace(k, k);
        for (std::uint64_t round = 0; round < 1000; ++round) {
            const std::uint64_t k = kChunk + round;
            m.try_emplace(k, k);
            ASSERT_EQ(m.size(), kChunk + 1);
            ASSERT_EQ(m.find(k)->second.v, k);
            m.erase(m.find(round % 2 ? k : round));
            ASSERT_EQ(m.size(), kChunk);
            ASSERT_EQ(Counted::live, static_cast<long>(kChunk));
        }
        // Down across the boundary and back up.
        for (std::uint64_t i = 0; i < 10; ++i)
            m.erase(m.begin());
        for (std::uint64_t i = 0; i < 20; ++i)
            m.try_emplace(1'000'000 + i, i);
        EXPECT_EQ(Counted::live, static_cast<long>(m.size()));
        m.clear();
        EXPECT_EQ(Counted::live, 0);
        for (std::uint64_t k = 0; k < kChunk + 3; ++k)
            m.try_emplace(k, k);
    }
    EXPECT_EQ(Counted::live, 0);
}

TEST(FlatMap, IterationOrderMatchesVectorModel)
{
    // A recorded op history over ~2.5 chunks of keys: the chunked map
    // must visit entries in exactly the order the one-vector layout
    // did, since walks, digests and the rebalance depend on it.
    FlatMap<std::uint64_t, std::uint64_t> m;
    VectorModel model;
    std::vector<std::uint64_t> live;
    sim::Rng rng(16);
    for (int op = 0; op < 50'000; ++op) {
        if (live.empty() || rng.chance(0.65)) {
            const std::uint64_t k = rng.nextBelow(10 * kChunk);
            const bool inserted = m.try_emplace(k, k + 1).second;
            ASSERT_EQ(inserted, model.insert(k, k + 1));
            if (inserted)
                live.push_back(k);
        } else {
            const std::size_t i = rng.nextBelow(live.size());
            const std::uint64_t k = live[i];
            live[i] = live.back();
            live.pop_back();
            m.erase(m.find(k));
            model.erase(k);
        }
        if (op % 4096 == 0)
            expectOrder(m, model);
    }
    EXPECT_GT(m.size(), 2 * kChunk);
    expectOrder(m, model);
}

TEST(FlatMap, HashedAndUnhashedLookupsAgree)
{
    using Map = FlatMap<std::string, std::uint64_t>;
    Map a;
    Map b;
    std::vector<std::string> keys;
    for (int i = 0; i < 3000; ++i)
        keys.push_back((i % 3 ? "k" : "a-key-longer-than-sso-") +
                       std::to_string(i * 7));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const Map::Hashed h = Map::hashed(keys[i]);
        ASSERT_EQ(h.hash, db::FlatHash<std::string>{}(keys[i]));
        ASSERT_EQ(a.try_emplace(keys[i], i).second,
                  b.try_emplace(h, i).second);
        if (i % 5 == 4) {
            const std::string &gone = keys[i / 2];
            a.erase(a.find(gone));
            b.erase(b.find(Map::hashed(gone)));
        }
    }
    ASSERT_EQ(a.size(), b.size());
    auto ai = a.begin();
    for (auto bi = b.begin(); bi != b.end(); ++bi, ++ai)
        ASSERT_EQ(ai->first, bi->first);
    for (const std::string &k : keys) {
        const Map::Hashed h = Map::hashed(k);
        b.prefetchSlot(h.hash);
        b.prefetchEntry(h.hash);
        const auto byText = b.find(k);
        ASSERT_EQ(byText, b.find(h));
        ASSERT_EQ(byText != b.end(), a.contains(k));
        if (byText != b.end()) {
            ASSERT_EQ(byText->second, a.find(k)->second);
        }
    }
}

namespace
{

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + 3 * i);
    return v;
}

bool
isInline(const db::Bytes &b)
{
    const auto *self = reinterpret_cast<const std::uint8_t *>(&b);
    return b.data() >= self && b.data() < self + sizeof(b);
}

void
expectBytes(const db::Bytes &b, const std::vector<std::uint8_t> &want)
{
    ASSERT_EQ(b.size(), want.size());
    ASSERT_TRUE(std::equal(b.begin(), b.end(), want.begin()));
    ASSERT_EQ(isInline(b), want.size() <= db::Bytes::kInlineBytes);
}

} // namespace

TEST(Bytes, TransitionsThroughAssignMoveAndCopy)
{
    const std::size_t sizes[] = {16, 64, 65, 1024, 16, 0, 1024, 65, 64};
    db::Bytes b;
    expectBytes(b, {});
    std::uint8_t seed = 1;
    for (std::size_t n : sizes) {
        const auto want = pattern(n, seed++);
        // assign
        b.assign(want);
        expectBytes(b, want);
        // copy construction and copy assignment over a value of
        // another size class
        db::Bytes copy(b);
        expectBytes(copy, want);
        db::Bytes other(pattern(n > 64 ? 16 : 1024, 99));
        other = b;
        expectBytes(other, want);
        EXPECT_TRUE(other == b);
        // move construction and move assignment leave the source empty
        db::Bytes moved(std::move(copy));
        expectBytes(moved, want);
        expectBytes(copy, {}); // NOLINT(bugprone-use-after-move)
        db::Bytes target(pattern(n > 64 ? 1024 : 16, 7));
        target = std::move(moved);
        expectBytes(target, want);
        expectBytes(moved, {}); // NOLINT(bugprone-use-after-move)
        // the iterator-pair assign the stores' ledger uses
        db::Bytes viaIters;
        viaIters.assign(want.begin(), want.end());
        expectBytes(viaIters, want);
    }
    EXPECT_FALSE(db::Bytes(pattern(64, 1)) == db::Bytes(pattern(64, 2)));
    EXPECT_FALSE(db::Bytes(pattern(64, 1)) == db::Bytes(pattern(65, 1)));
}

TEST(Bytes, EntryHashEqualsVectorEntryHash)
{
    for (std::size_t n : {0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 1024}) {
        const auto v = pattern(n, static_cast<std::uint8_t>(n));
        const db::Bytes b(v);
        EXPECT_EQ(db::entryHash(std::string("k42"), b),
                  db::entryHash(std::string("k42"), v))
            << n << " B";
        EXPECT_EQ(db::entryHash(std::uint64_t{42}, b),
                  db::entryHash(std::uint64_t{42}, v))
            << n << " B";
    }
}

TEST(PageAllocator, VectorKeepsItsContentsAcrossTheMappingThreshold)
{
    using Alloc = db::PageAllocator<std::uint64_t>;
    constexpr std::size_t kMappedFrom =
        Alloc::kMinMappedBytes / sizeof(std::uint64_t);
    std::vector<std::uint64_t, Alloc> v;
    // Doubling from one element crosses from std::allocator blocks to
    // mapped ones; every reallocation must carry the contents over.
    for (std::uint64_t i = 0; i < 4 * kMappedFrom; ++i) {
        v.push_back(i * 0x9e3779b97f4a7c15ull);
        if (v.size() == v.capacity()) {
            for (std::uint64_t j = 0; j <= i; ++j)
                ASSERT_EQ(v[j], j * 0x9e3779b97f4a7c15ull) << j;
        }
    }
    ASSERT_GE(v.capacity() * sizeof(std::uint64_t), Alloc::kMinMappedBytes);
    v.clear();
    v.shrink_to_fit();
    EXPECT_EQ(v.capacity(), 0u);
}
