/**
 * @file
 * Unit tests for the write-combining buffer, including the durability
 * hazard it creates (bytes lost unless flushed).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "host/wc_buffer.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

using namespace bssd;
using namespace bssd::host;

namespace
{

/** Records everything the WC buffer posts, with timestamps. */
struct CapturingSink
{
    std::map<std::uint64_t, std::uint8_t> memory;
    std::uint64_t posts = 0;
    sim::Tick perPost = 5;

    WcBuffer::Sink
    fn()
    {
        return [this](sim::Tick ready, std::uint64_t off,
                      std::span<const std::uint8_t> data) {
            ++posts;
            for (std::size_t i = 0; i < data.size(); ++i)
                memory[off + i] = data[i];
            return ready + perPost;
        };
    }

    bool
    holds(std::uint64_t off, std::span<const std::uint8_t> expect) const
    {
        for (std::size_t i = 0; i < expect.size(); ++i) {
            auto it = memory.find(off + i);
            if (it == memory.end() || it->second != expect[i])
                return false;
        }
        return true;
    }
};

std::vector<std::uint8_t>
bytes(std::initializer_list<std::uint8_t> l)
{
    return {l};
}

} // namespace

TEST(WcBuffer, SmallWriteStaysBuffered)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({1, 2, 3});
    wc.write(0, 100, d);
    EXPECT_EQ(sink.posts, 0u);
    EXPECT_EQ(wc.dirtyLines(), 1u);
    EXPECT_EQ(wc.dirtyBytes(), 3u);
}

TEST(WcBuffer, FullLinePostsImmediately)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    std::vector<std::uint8_t> d(64, 0xaa);
    wc.write(0, 0, d);
    EXPECT_EQ(sink.posts, 1u);
    EXPECT_TRUE(sink.holds(0, d));
    EXPECT_EQ(wc.dirtyLines(), 0u);
}

TEST(WcBuffer, CombinesAdjacentStores)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    // Two 32-byte stores filling one line combine into one burst.
    std::vector<std::uint8_t> half(32, 0x11);
    wc.write(0, 0, half);
    wc.write(0, 32, half);
    EXPECT_EQ(sink.posts, 1u);
}

TEST(WcBuffer, FlushRangePostsAndClears)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({9, 8, 7});
    wc.write(0, 10, d);
    sim::Tick t = wc.flushRange(100, 10, 3);
    EXPECT_EQ(sink.posts, 1u);
    EXPECT_TRUE(sink.holds(10, d));
    EXPECT_EQ(wc.dirtyLines(), 0u);
    // Cost: clflush + sink + mfence.
    WcConfig cfg;
    EXPECT_EQ(t, 100 + cfg.clflushCost + sink.perPost + cfg.mfenceCost);
}

TEST(WcBuffer, FlushRangeLeavesOtherLines)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({1});
    wc.write(0, 0, d);
    wc.write(0, 6400, d);
    wc.flushRange(0, 0, 64);
    EXPECT_EQ(wc.dirtyLines(), 1u);
    EXPECT_EQ(sink.posts, 1u);
}

TEST(WcBuffer, UnflushedBytesAreLostOnPowerFailure)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({0xde, 0xad});
    wc.write(0, 0, d);
    std::uint64_t lost = wc.dropAll();
    EXPECT_EQ(lost, 2u);
    EXPECT_EQ(sink.posts, 0u);
    EXPECT_FALSE(sink.holds(0, d));
}

TEST(WcBuffer, CapacityEvictionPostsOldestLine)
{
    WcConfig cfg;
    cfg.lines = 2;
    CapturingSink sink;
    WcBuffer wc(cfg, sink.fn());
    auto d = bytes({1});
    wc.write(0, 0, d);    // line A
    wc.write(0, 64, d);   // line B
    wc.write(0, 128, d);  // line C: evicts A
    EXPECT_EQ(sink.posts, 1u);
    EXPECT_TRUE(sink.holds(0, d));
    EXPECT_EQ(wc.capacityEvictions(), 1u);
    EXPECT_EQ(wc.dirtyLines(), 2u);
}

TEST(WcBuffer, PartialLinePostsOnlyValidBytes)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({5, 6});
    wc.write(0, 20, d); // sparse within the line
    wc.flushAll(0);
    EXPECT_TRUE(sink.holds(20, d));
    EXPECT_EQ(sink.memory.size(), 2u); // nothing else posted
}

TEST(WcBuffer, DrainAllHasNoInstructionCost)
{
    CapturingSink sink;
    sink.perPost = 0;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto d = bytes({1});
    wc.write(0, 0, d);
    EXPECT_EQ(wc.drainAll(50), 50u);
    EXPECT_EQ(sink.posts, 1u);
}

TEST(WcBuffer, SpanningWriteTouchesMultipleLines)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    std::vector<std::uint8_t> d(100, 0x42);
    wc.write(0, 60, d); // crosses two line boundaries
    wc.flushAll(0);
    EXPECT_TRUE(sink.holds(60, d));
}

TEST(WcBuffer, RewriteWithinLineKeepsLatest)
{
    CapturingSink sink;
    WcBuffer wc(WcConfig{}, sink.fn());
    auto a = bytes({1, 1, 1});
    auto b = bytes({2, 2});
    wc.write(0, 0, a);
    wc.write(0, 1, b);
    wc.flushAll(0);
    auto want = bytes({1, 2, 2});
    EXPECT_TRUE(sink.holds(0, want));
}

namespace
{

/** Every sink call as (offset, bytes), in call order. */
struct Call
{
    std::uint64_t offset;
    std::vector<std::uint8_t> data;
    bool operator==(const Call &) const = default;
};

} // namespace

TEST(WcBuffer, ReusedLineAfterCapacityEvictionPostsOnlyItsOwnBytes)
{
    // One fill buffer: the second line's store evicts the first and
    // takes over its slot, whose data array still holds 0xaa bytes.
    std::vector<Call> calls;
    WcConfig cfg;
    cfg.lines = 1;
    WcBuffer wc(cfg, [&](sim::Tick ready, std::uint64_t off,
                         std::span<const std::uint8_t> data) {
        calls.push_back(Call{off, {data.begin(), data.end()}});
        return ready + sim::nsOf(5);
    });
    wc.write(0, 0, std::vector<std::uint8_t>(60, 0xaa));
    wc.write(0, 64 + 10, bytes({1, 2, 3, 4}));
    wc.write(0, 64 + 30, bytes({5, 6}));
    EXPECT_EQ(wc.capacityEvictions(), 1u);
    EXPECT_EQ(wc.dirtyBytes(), 6u);
    wc.flushAll(0);
    const std::vector<Call> want{
        {0, std::vector<std::uint8_t>(60, 0xaa)},
        {74, bytes({1, 2, 3, 4})},
        {94, bytes({5, 6})},
    };
    EXPECT_EQ(calls, want);
}

TEST(WcBuffer, ReusedLineAfterTornDropDeliversOnlyItsOwnBytes)
{
    // A torn power cut delivers a prefix of each dirty line's valid
    // bytes through the crash sink. The slot is then reused - once
    // for another line, once for the same line base - and a second
    // cut (and a flush) must only ever surface the new occupant's
    // bytes, never the stale 0xaa ones still in the data array.
    std::uint64_t tornDeliveries = 0;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        sim::FaultPlan plan;
        plan.seed = seed;
        plan.wcPartialLineOnPowerCut = true;
        sim::FaultInjector faults(plan);
        std::vector<Call> posted, crashed;
        WcConfig cfg;
        cfg.lines = 1;
        WcBuffer wc(cfg, [&](sim::Tick ready, std::uint64_t off,
                             std::span<const std::uint8_t> data) {
            posted.push_back(Call{off, {data.begin(), data.end()}});
            return ready + sim::nsOf(5);
        });
        wc.setFaultInjector(&faults);
        wc.setCrashSink(
            [&](std::uint64_t off, std::span<const std::uint8_t> data) {
                crashed.push_back(Call{off, {data.begin(), data.end()}});
            });

        // A twin injector replays the same split points, so the test
        // knows how many leading valid bytes each cut delivers.
        sim::FaultInjector twin(plan);

        wc.write(0, 0, std::vector<std::uint8_t>(60, 0xaa));
        EXPECT_EQ(wc.dropAll(), 60 - twin.wcPartialKeep(60));
        crashed.clear();

        // Another line in the slot: exactly its first `keep` valid
        // bytes arrive, as one run, and nothing of the old line.
        wc.write(0, 64 + 20, bytes({1, 2, 3}));
        EXPECT_EQ(wc.dirtyBytes(), 3u);
        const std::uint64_t keep = twin.wcPartialKeep(3);
        EXPECT_EQ(wc.dropAll(), 3 - keep);
        tornDeliveries += crashed.size();
        if (keep == 0) {
            EXPECT_TRUE(crashed.empty()) << "seed " << seed;
        } else {
            const std::vector<std::uint8_t> all = bytes({1, 2, 3});
            ASSERT_EQ(crashed,
                      (std::vector<Call>{
                          {84, {all.begin(), all.begin() + keep}}}))
                << "seed " << seed;
        }
        crashed.clear();

        // The same base again: stale bytes sit at the very addresses
        // a leak would expose.
        wc.write(0, 0, std::vector<std::uint8_t>(60, 0xaa));
        wc.dropAll();
        crashed.clear();
        wc.write(0, 5, bytes({7, 8}));
        wc.flushAll(0);
        EXPECT_TRUE(crashed.empty());
        ASSERT_EQ(posted, (std::vector<Call>{{5, bytes({7, 8})}}))
            << "seed " << seed;
    }
    // The torn path really ran (a keep of 0 delivers nothing).
    EXPECT_GT(tornDeliveries, 0u);
}
