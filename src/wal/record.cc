#include "wal/record.hh"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace bssd::wal
{

namespace
{

/**
 * Slicing-by-8 tables: crcTables[0] is the classic byte-at-a-time
 * table; crcTables[k][i] is the CRC of byte i followed by k zero
 * bytes, so eight table lookups fold eight input bytes at once.
 */
std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    constexpr std::uint32_t poly = 0x82f63b78; // CRC-32C, reflected
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (std::size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    return t;
}

const std::array<std::array<std::uint32_t, 256>, 8> crcTables =
    makeCrcTables();

/** Little-endian store of @p n bytes of @p x at @p p. */
void
putLe(std::uint8_t *p, std::uint64_t x, int n)
{
    for (int i = 0; i < n; ++i)
        p[i] = static_cast<std::uint8_t>(x >> (8 * i));
}

std::uint32_t
get32(std::span<const std::uint8_t> b, std::size_t off)
{
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i)
        x |= std::uint32_t(b[off + i]) << (8 * i);
    return x;
}

std::uint64_t
get64(std::span<const std::uint8_t> b, std::size_t off)
{
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i)
        x |= std::uint64_t(b[off + i]) << (8 * i);
    return x;
}

#if defined(__x86_64__)
/** CRC-32C with the SSE4.2 crc32 instruction: eight bytes per
 *  instruction, then one per instruction for the tail. */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(std::span<const std::uint8_t> data)
{
    std::uint64_t c = ~std::uint32_t(0);
    const std::uint8_t *p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        c = _mm_crc32_u64(c, w);
    }
    auto c32 = static_cast<std::uint32_t>(c);
    for (; n > 0; ++p, --n)
        c32 = _mm_crc32_u8(c32, *p);
    return ~c32;
}
#endif

} // namespace

namespace detail
{

std::uint32_t
crc32cTable(std::span<const std::uint8_t> data)
{
    const auto &t = crcTables;
    std::uint32_t c = ~std::uint32_t(0);
    const std::uint8_t *p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        std::uint32_t lo = c ^ (std::uint32_t(p[0]) |
                                std::uint32_t(p[1]) << 8 |
                                std::uint32_t(p[2]) << 16 |
                                std::uint32_t(p[3]) << 24);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return ~c;
}

} // namespace detail

std::uint32_t
crc32c(std::span<const std::uint8_t> data)
{
#if defined(__x86_64__)
    static const bool sse42 =
        (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2"));
    if (sse42)
        return crc32cSse42(data);
#endif
    return detail::crc32cTable(data);
}

void
frameRecordInto(std::vector<std::uint8_t> &frame, std::uint64_t seq,
                std::span<const std::uint8_t> payload)
{
    frame.resize(recordHeaderBytes + payload.size());
    std::uint8_t *p = frame.data();
    putLe(p, payload.size(), 4);
    putLe(p + 8, seq, 8);
    std::copy(payload.begin(), payload.end(), p + recordHeaderBytes);
    // CRC covers sequence + payload; patch it in once they are laid out.
    putLe(p + 4,
          crc32c(std::span<const std::uint8_t>(frame).subspan(8)), 4);
}

std::vector<std::uint8_t>
frameRecord(std::uint64_t seq, std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> frame;
    frameRecordInto(frame, seq, payload);
    return frame;
}

std::vector<ParsedRecord>
parseRecords(std::span<const std::uint8_t> bytes, std::int64_t expect_first)
{
    std::vector<ParsedRecord> out;
    std::size_t pos = 0;
    std::int64_t expect = expect_first;
    while (pos + recordHeaderBytes <= bytes.size()) {
        std::uint32_t len = get32(bytes, pos);
        if (len > bytes.size() - pos - recordHeaderBytes)
            break; // truncated or garbage length
        std::uint32_t crc = get32(bytes, pos + 4);
        auto body = bytes.subspan(pos + 8, 8 + len);
        if (crc32c(body) != crc)
            break; // torn write or erased area
        std::uint64_t seq = get64(bytes, pos + 8);
        if (expect >= 0 && seq != static_cast<std::uint64_t>(expect))
            break; // stale data from a previous log generation
        ParsedRecord rec;
        rec.sequence = seq;
        rec.payload.assign(body.begin() + 8, body.end());
        out.push_back(std::move(rec));
        pos += recordHeaderBytes + len;
        if (expect >= 0)
            ++expect;
    }
    return out;
}

std::vector<ParsedRecord>
parseLogStream(std::span<const std::uint8_t> bytes,
               std::uint64_t chunkBytes, std::int64_t expect_first)
{
    if (chunkBytes == 0)
        return parseRecords(bytes, expect_first);
    std::vector<ParsedRecord> out;
    std::int64_t expect = expect_first;
    for (std::size_t pos = 0; pos < bytes.size(); pos += chunkBytes) {
        std::size_t n = std::min<std::size_t>(chunkBytes,
                                              bytes.size() - pos);
        auto recs = parseRecords(bytes.subspan(pos, n), expect);
        if (recs.empty())
            break;
        if (expect >= 0)
            expect += static_cast<std::int64_t>(recs.size());
        else if (!out.empty() &&
                 recs.front().sequence != out.back().sequence + 1)
            break; // stale chunk from a previous generation
        for (auto &r : recs)
            out.push_back(std::move(r));
    }
    return out;
}

} // namespace bssd::wal
