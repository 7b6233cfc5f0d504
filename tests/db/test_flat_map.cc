/**
 * @file
 * db::FlatMap against a std::map oracle: random op streams over tiny
 * key spaces (dense probe runs), hand-placed probe runs across the
 * index wrap-around, erase of the last and of a middle entry, and
 * growth through several doublings. After every op the map must hold
 * exactly the oracle's contents, and iteration must visit exactly the
 * live set.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/flat_map.hh"
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
