/**
 * @file
 * Log record framing shared by all engines.
 *
 * Frame layout: [u32 length][u32 crc32][u64 sequence][payload].
 * The CRC covers sequence + payload. Parsing stops at the first frame
 * that fails validation, which is how a recovering engine detects the
 * torn or never-persisted tail of its log (erased NAND reads 0xff, a
 * zeroed buffer 0x00 - both are invalid lengths).
 */

#ifndef BSSD_WAL_RECORD_HH
#define BSSD_WAL_RECORD_HH

#include <cstdint>
#include <span>
#include <vector>

namespace bssd::wal
{

/** CRC32 (Castagnoli polynomial), bit-reflected. On an x86-64 host
 *  with SSE4.2 (checked once) the crc32 instruction folds eight bytes
 *  per step; elsewhere detail::crc32cTable() does. Same polynomial,
 *  so the same value either way. */
std::uint32_t crc32c(std::span<const std::uint8_t> data);

namespace detail
{
/** The portable path of crc32c(): slicing-by-8 (eight table lookups
 *  fold eight bytes per step, then one byte per step for the tail).
 *  Exposed so tests check it on hosts that take the SSE4.2 path. */
std::uint32_t crc32cTable(std::span<const std::uint8_t> data);
} // namespace detail

/** A parsed, validated log record. */
struct ParsedRecord
{
    std::uint64_t sequence = 0;
    std::vector<std::uint8_t> payload;
};

/** Bytes of framing overhead per record. */
constexpr std::size_t recordHeaderBytes = 4 + 4 + 8;

/** Frame @p payload with sequence number @p seq. */
std::vector<std::uint8_t> frameRecord(std::uint64_t seq,
                                      std::span<const std::uint8_t> payload);

/**
 * frameRecord() into @p frame, replacing its contents but reusing its
 * capacity (the per-command framing buffer of a store).
 */
void frameRecordInto(std::vector<std::uint8_t> &frame, std::uint64_t seq,
                     std::span<const std::uint8_t> payload);

/**
 * Parse a durable log byte stream. Returns every valid record up to
 * the first invalid frame (torn write, erased area, stale data with a
 * non-monotonic sequence).
 *
 * @param bytes        the recovered log area
 * @param expect_first when non-negative, the first record must carry
 *                     this sequence and subsequent ones must increase
 *                     by one; otherwise sequences are unconstrained.
 */
std::vector<ParsedRecord> parseRecords(std::span<const std::uint8_t> bytes,
                                       std::int64_t expect_first = -1);

/**
 * Parse a recovered log stream whose records never straddle
 * @p chunkBytes boundaries (each chunk may end in padding). With
 * chunkBytes == 0 this is plain parseRecords(). Parsing continues
 * into the next chunk as long as the sequence stays consecutive and
 * stops at the first chunk that yields nothing.
 */
std::vector<ParsedRecord>
parseLogStream(std::span<const std::uint8_t> bytes,
               std::uint64_t chunkBytes, std::int64_t expect_first = -1);

} // namespace bssd::wal

#endif // BSSD_WAL_RECORD_HH
