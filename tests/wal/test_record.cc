/**
 * @file
 * Unit tests for log record framing and stream parsing.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "wal/record.hh"

using namespace bssd::wal;

namespace
{

std::vector<std::uint8_t>
payload(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
}

} // namespace

TEST(Crc32c, KnownVector)
{
    // "123456789" -> 0xE3069283 (CRC-32C check value).
    std::vector<std::uint8_t> d{'1', '2', '3', '4', '5', '6', '7', '8',
                                '9'};
    EXPECT_EQ(crc32c(d), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero)
{
    EXPECT_EQ(crc32c({}), 0u);
}

namespace
{

/** Bit-at-a-time CRC-32C: the definition the fast path must match. */
std::uint32_t
crc32cBitwise(std::span<const std::uint8_t> data)
{
    std::uint32_t c = ~std::uint32_t(0);
    for (std::uint8_t byte : data) {
        c ^= byte;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
    }
    return ~c;
}

} // namespace

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    // Lengths 0..300 cover the 8-byte fold plus every tail length;
    // eight start offsets cover every alignment of the first fold.
    // Both the dispatched path (the crc32 instruction on SSE4.2
    // hosts) and the portable table path must match.
    std::vector<std::uint8_t> buf(8 + 300);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 131 + (i >> 3) * 7 + 1);
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 300; ++len) {
            std::span<const std::uint8_t> d(buf.data() + align, len);
            const std::uint32_t want = crc32cBitwise(d);
            ASSERT_EQ(crc32c(d), want)
                << "align " << align << " len " << len;
            ASSERT_EQ(detail::crc32cTable(d), want)
                << "table, align " << align << " len " << len;
        }
    }
}

TEST(Crc32c, Rfc3720Vectors)
{
    // RFC 3720 appendix B.4: 32 bytes of zeros and 32 bytes of ones.
    const std::vector<std::uint8_t> zeros(32, 0x00);
    const std::vector<std::uint8_t> ones(32, 0xff);
    EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
    EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
    EXPECT_EQ(detail::crc32cTable(zeros), 0x8A9136AAu);
    EXPECT_EQ(detail::crc32cTable(ones), 0x62A8AB43u);
}

TEST(Record, FrameIntoReusedBufferMatchesFrameRecord)
{
    // Shrinking, growing and equal-size reuse must all give exactly
    // frameRecord()'s bytes (no stale tail, no stale CRC).
    std::vector<std::uint8_t> frame;
    const std::size_t sizes[] = {200, 0, 31, 200, 1, 64, 64, 300, 9};
    std::uint64_t seq = 0;
    for (std::size_t n : sizes) {
        auto p = payload(n, static_cast<std::uint8_t>(seq * 17));
        frameRecordInto(frame, seq, p);
        EXPECT_EQ(frame, frameRecord(seq, p)) << "payload " << n;
        ++seq;
    }
}

TEST(Record, FrameAndParseRoundTrip)
{
    auto p = payload(100, 7);
    auto f = frameRecord(5, p);
    EXPECT_EQ(f.size(), recordHeaderBytes + 100);
    auto recs = parseRecords(f);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].sequence, 5u);
    EXPECT_EQ(recs[0].payload, p);
}

TEST(Record, MultipleRecordsParseInOrder)
{
    std::vector<std::uint8_t> stream;
    for (std::uint64_t s = 0; s < 10; ++s) {
        auto f = frameRecord(s, payload(16 + s, static_cast<std::uint8_t>(s)));
        stream.insert(stream.end(), f.begin(), f.end());
    }
    auto recs = parseRecords(stream, 0);
    ASSERT_EQ(recs.size(), 10u);
    for (std::uint64_t s = 0; s < 10; ++s)
        EXPECT_EQ(recs[s].sequence, s);
}

TEST(Record, TornTailStopsParse)
{
    std::vector<std::uint8_t> stream;
    for (std::uint64_t s = 0; s < 3; ++s) {
        auto f = frameRecord(s, payload(32, 1));
        stream.insert(stream.end(), f.begin(), f.end());
    }
    // Corrupt a byte in the third record's payload.
    stream[2 * (recordHeaderBytes + 32) + recordHeaderBytes + 4] ^= 0xff;
    auto recs = parseRecords(stream, 0);
    EXPECT_EQ(recs.size(), 2u);
}

TEST(Record, ErasedAreaStopsParse)
{
    auto f = frameRecord(0, payload(16, 3));
    std::vector<std::uint8_t> stream = f;
    stream.insert(stream.end(), 64, 0xff); // erased NAND
    EXPECT_EQ(parseRecords(stream, 0).size(), 1u);
    stream = f;
    stream.insert(stream.end(), 64, 0x00); // zeroed buffer
    EXPECT_EQ(parseRecords(stream, 0).size(), 1u);
}

TEST(Record, StaleSequenceStopsParse)
{
    // A valid-CRC record with the wrong sequence is from a previous
    // log generation and must not replay.
    std::vector<std::uint8_t> stream;
    auto a = frameRecord(0, payload(8, 1));
    auto b = frameRecord(7, payload(8, 2)); // stale: expected 1
    stream.insert(stream.end(), a.begin(), a.end());
    stream.insert(stream.end(), b.begin(), b.end());
    EXPECT_EQ(parseRecords(stream, 0).size(), 1u);
}

TEST(Record, TruncatedHeaderStops)
{
    auto f = frameRecord(0, payload(8, 1));
    f.resize(f.size() - 1);
    EXPECT_EQ(parseRecords(f, 0).size(), 0u);
}

TEST(Record, ChunkedStreamSkipsPadding)
{
    // Two 256-byte chunks; each holds one record plus padding.
    const std::uint64_t chunk = 256;
    std::vector<std::uint8_t> stream(2 * chunk, 0);
    auto a = frameRecord(0, payload(64, 1));
    auto b = frameRecord(1, payload(64, 2));
    std::copy(a.begin(), a.end(), stream.begin());
    std::copy(b.begin(), b.end(),
              stream.begin() + static_cast<std::ptrdiff_t>(chunk));
    auto recs = parseLogStream(stream, chunk, 0);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].sequence, 1u);
}

TEST(Record, ChunkedStreamStopsAtDeadChunk)
{
    const std::uint64_t chunk = 256;
    std::vector<std::uint8_t> stream(3 * chunk, 0xff);
    auto a = frameRecord(0, payload(64, 1));
    std::copy(a.begin(), a.end(), stream.begin());
    // Chunk 1 is erased; chunk 2 holds a stale record.
    auto stale = frameRecord(9, payload(64, 3));
    std::copy(stale.begin(), stale.end(),
              stream.begin() + static_cast<std::ptrdiff_t>(2 * chunk));
    auto recs = parseLogStream(stream, chunk, 0);
    EXPECT_EQ(recs.size(), 1u);
}

TEST(Record, ChunkZeroMeansContiguous)
{
    auto f = frameRecord(0, payload(8, 1));
    EXPECT_EQ(parseLogStream(f, 0, 0).size(), 1u);
}
