/**
 * @file
 * Unit tests for the BA-buffer: mapping table rules and posted-write
 * settlement semantics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ba/ba_buffer.hh"
#include "sim/logging.hh"

using namespace bssd;
using namespace bssd::ba;

namespace
{

constexpr std::uint32_t kPage = 4096;

BaConfig
smallCfg()
{
    BaConfig c;
    c.bufferBytes = 64 * sim::KiB;
    c.maxEntries = 4;
    return c;
}

} // namespace

TEST(BaMappingTable, AddLookupRemove)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 16 * kPage, 2 * kPage, kPage);
    auto e = buf.entry(1);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->startOffset, 0u);
    EXPECT_EQ(e->startLba, 16u * kPage);
    EXPECT_EQ(e->length, 2u * kPage);
    buf.removeEntry(1);
    EXPECT_FALSE(buf.entry(1).has_value());
}

TEST(BaMappingTable, DuplicateEidRejected)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 0, kPage, kPage);
    EXPECT_THROW(buf.addEntry(1, 2 * kPage, 8 * kPage, kPage, kPage),
                 BaError);
}

TEST(BaMappingTable, BufferOverlapRejected)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 0, 2 * kPage, kPage);
    EXPECT_THROW(buf.addEntry(2, kPage, 8 * kPage, kPage, kPage), BaError);
}

TEST(BaMappingTable, LbaOverlapRejected)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 0, 2 * kPage, kPage);
    EXPECT_THROW(buf.addEntry(2, 4 * kPage, kPage, kPage, kPage), BaError);
}

TEST(BaMappingTable, MisalignmentRejected)
{
    BaBuffer buf(smallCfg());
    EXPECT_THROW(buf.addEntry(1, 0, 0, 100, kPage), BaError);
    EXPECT_THROW(buf.addEntry(1, 7, 0, kPage, kPage), BaError);
    EXPECT_THROW(buf.addEntry(1, 0, 9, kPage, kPage), BaError);
    EXPECT_THROW(buf.addEntry(1, 0, 0, 0, kPage), BaError);
}

TEST(BaMappingTable, TableCapacityEnforced)
{
    BaBuffer buf(smallCfg()); // 4 entries max
    for (Eid e = 0; e < 4; ++e) {
        buf.addEntry(e, std::uint64_t(e) * kPage,
                     std::uint64_t(e + 10) * kPage, kPage, kPage);
    }
    EXPECT_EQ(buf.entryCount(), 4u);
    EXPECT_THROW(
        buf.addEntry(9, 5 * kPage, 50 * kPage, kPage, kPage), BaError);
    // Removing one frees a slot.
    buf.removeEntry(2);
    EXPECT_NO_THROW(
        buf.addEntry(9, 5 * kPage, 50 * kPage, kPage, kPage));
}

TEST(BaMappingTable, RangeBeyondBufferRejected)
{
    BaBuffer buf(smallCfg()); // 64 KiB buffer
    EXPECT_THROW(buf.addEntry(1, 60 * sim::KiB, 0, 2 * kPage, kPage),
                 BaError);
}

TEST(BaMappingTable, LbaPinnedQuery)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(1, 0, 16 * kPage, 2 * kPage, kPage);
    EXPECT_TRUE(buf.lbaPinned(16 * kPage, 1));
    EXPECT_TRUE(buf.lbaPinned(17 * kPage + 5, 10));
    EXPECT_TRUE(buf.lbaPinned(15 * kPage, 2 * kPage)); // straddles
    EXPECT_FALSE(buf.lbaPinned(18 * kPage, kPage));
    EXPECT_FALSE(buf.lbaPinned(0, 16 * kPage));
}

TEST(BaBufferData, PostedWriteInvisibleUntilSettled)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> d{1, 2, 3};
    buf.postWrite(1000, 10, d);
    std::vector<std::uint8_t> out(3, 0);
    buf.settleTo(999);
    buf.read(10, out);
    EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 0, 0}));
    buf.settleTo(1000);
    buf.read(10, out);
    EXPECT_EQ(out, d);
}

TEST(BaBufferData, PowerLossKeepsArrivedDropsInFlight)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> a{0xaa}, b{0xbb};
    buf.postWrite(100, 0, a);
    buf.postWrite(200, 1, b);
    std::uint64_t lost = buf.powerLossAt(150);
    EXPECT_EQ(lost, 1u);
    std::vector<std::uint8_t> out(2);
    buf.read(0, out);
    EXPECT_EQ(out[0], 0xaa);
    EXPECT_EQ(out[1], 0x00);
    EXPECT_EQ(buf.pendingBytes(), 0u);
}

TEST(BaBufferData, SettlementAppliesInOrder)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> a{0x01}, b{0x02};
    buf.postWrite(100, 0, a);
    buf.postWrite(150, 0, b); // same byte, later write wins
    buf.settleTo(200);
    std::vector<std::uint8_t> out(1);
    buf.read(0, out);
    EXPECT_EQ(out[0], 0x02);
}

TEST(BaBufferData, DeviceWriteIsImmediate)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> d{9, 9};
    buf.deviceWrite(100, d);
    std::vector<std::uint8_t> out(2);
    buf.read(100, out);
    EXPECT_EQ(out, d);
}

TEST(BaBufferData, OutOfRangeAccessRejected)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> d(10);
    EXPECT_THROW(buf.postWrite(0, 64 * sim::KiB - 5, d), BaError);
    EXPECT_THROW(buf.deviceWrite(64 * sim::KiB - 5, d), BaError);
    std::vector<std::uint8_t> out(10);
    EXPECT_THROW(buf.read(64 * sim::KiB - 5, out), BaError);
}

TEST(BaBufferData, RestoreReplacesEverything)
{
    BaBuffer buf(smallCfg());
    buf.addEntry(3, 0, 8 * kPage, kPage, kPage);
    std::vector<std::uint8_t> image(64 * sim::KiB, 0x5a);
    std::vector<MapEntry> table{
        MapEntry{7, kPage, 32 * kPage, kPage, true}};
    buf.restore(image, table);
    EXPECT_FALSE(buf.entry(3).has_value());
    ASSERT_TRUE(buf.entry(7).has_value());
    std::vector<std::uint8_t> out(4);
    buf.read(0, out);
    EXPECT_EQ(out[0], 0x5a);
}

TEST(BaBufferData, PartiallySettledQueueLosesExactlyTheUnsettledBytes)
{
    BaBuffer buf(smallCfg());
    // Five posted writes of distinct lengths arriving at 100..500.
    const std::size_t lens[] = {3, 17, 64, 5, 200};
    for (std::size_t i = 0; i < 5; ++i) {
        std::vector<std::uint8_t> d(lens[i],
                                    static_cast<std::uint8_t>(i + 1));
        buf.postWrite(100 * (i + 1), 1000 * i, d);
    }
    EXPECT_EQ(buf.pendingBytes(), 3u + 17 + 64 + 5 + 200);
    buf.settleTo(250); // first two arrived
    EXPECT_EQ(buf.pendingBytes(), 64u + 5 + 200);
    // One more write joins the partially settled queue.
    std::vector<std::uint8_t> late(9, 0xee);
    buf.postWrite(600, 6000, late);
    EXPECT_EQ(buf.pendingBytes(), 64u + 5 + 200 + 9);
    // Power dies at 450: the third and fourth arrived, the rest did not.
    EXPECT_EQ(buf.powerLossAt(450), 200u + 9);
    EXPECT_EQ(buf.pendingBytes(), 0u);
    std::vector<std::uint8_t> out(1);
    for (std::size_t i = 0; i < 4; ++i) {
        buf.read(1000 * i, out);
        EXPECT_EQ(out[0], i + 1) << "write " << i;
    }
    buf.read(4000, out);
    EXPECT_EQ(out[0], 0u);
    buf.read(6000, out);
    EXPECT_EQ(out[0], 0u);
    // The queue restarts cleanly after the cut.
    buf.postWrite(50, 7, late);
    EXPECT_EQ(buf.pendingBytes(), 9u);
    buf.settleTo(50);
    EXPECT_EQ(buf.pendingBytes(), 0u);
}

TEST(BaBufferData, PostedWriteArrivingBeforeTheQueueTailPanics)
{
    BaBuffer buf(smallCfg());
    std::vector<std::uint8_t> d{1};
    buf.postWrite(200, 0, d);
    buf.postWrite(200, 1, d); // equal arrivals keep issue order
    EXPECT_THROW(buf.postWrite(199, 2, d), sim::SimPanic);
    // Once the queue drains there is no tail to reorder behind.
    buf.settleTo(200);
    buf.postWrite(10, 3, d);
    EXPECT_EQ(buf.pendingBytes(), 1u);
}
