/**
 * @file
 * minirocks: an LSM key-value store standing in for RocksDB 5.1.4 in
 * the paper's YCSB experiment (Section IV-B).
 *
 * Structure mirrors RocksDB's essentials:
 *  - a memtable receiving writes, each guarded by a WAL record
 *    committed through a write group (sync=true semantics);
 *  - when the memtable fills it becomes immutable and is flushed to a
 *    sorted-string-table (SST) on the data region of the device by a
 *    background flush thread, after which the WAL is truncated;
 *  - L0 SSTs are compacted into L1 when they pile up;
 *  - a MANIFEST (CRC-guarded, rewritten on every flush/compaction)
 *    records live SSTs + the last flushed sequence, so crash recovery
 *    = read MANIFEST, reload SSTs from the device, replay the WAL
 *    suffix.
 *
 * The paper's BA-WAL port sizes each log at a quarter of the
 * BA-buffer (half of each double-buffer half); that is just a BaWal
 * configuration here.
 */

#ifndef BSSD_DB_MINIROCKS_MINIROCKS_HH
#define BSSD_DB_MINIROCKS_MINIROCKS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "ssd/ssd_device.hh"
#include "wal/group_commit.hh"
#include "wal/log_device.hh"

namespace bssd::db::minirocks
{

/** Engine cost model and shape parameters. */
struct RocksConfig
{
    /** CPU per get/put (skiplist, comparator, allocator, client).
     *  Calibrated to put the Fig. 9 YCSB ratios in the paper's bands. */
    sim::Tick opCpu = sim::usOf(25);
    /** Extra CPU per KiB of value handled. */
    sim::Tick cpuPerKib = sim::usOf(6);
    /** Memtable size triggering a flush. */
    std::uint64_t memtableBytes = 2 * sim::MiB;
    /** L0 file count triggering compaction into L1. */
    std::uint32_t l0CompactionTrigger = 4;
    /** Byte offset of the SST data region on the device. */
    std::uint64_t dataRegionOffset = 128 * sim::MiB;
    /** Size of the SST data region (ring-allocated). */
    std::uint64_t dataRegionBytes = 256 * sim::MiB;
    /** Byte offset of the MANIFEST region on the device. */
    std::uint64_t manifestOffset = 120 * sim::MiB;
};

/** The LSM engine. */
class MiniRocks
{
  public:
    /**
     * @param log  WAL device (BlockWal/BaWal/PmWal/AsyncWal)
     * @param data block device holding SSTs and the MANIFEST (in the
     *             2B-SSD configuration this is the same physical
     *             device as the log - dev.device())
     */
    MiniRocks(wal::LogDevice &log, ssd::SsdDevice &data,
              const RocksConfig &cfg = {});

    /** Insert/overwrite. @return completion time (commit included). */
    sim::Tick put(sim::Tick now, const std::string &key,
                  std::span<const std::uint8_t> value);

    /** Delete (tombstone). */
    sim::Tick del(sim::Tick now, const std::string &key);

    /**
     * Point lookup. @return completion time; @p out receives the value
     * when found (served from the memtables / table cache - the paper
     * provisions DRAM so reads do not hit media).
     */
    sim::Tick get(sim::Tick now, const std::string &key,
                  std::optional<std::vector<std::uint8_t>> *out = nullptr)
        const;

    /** Crash the WAL device and recover from MANIFEST + WAL replay. */
    void recover();

    /** @name Introspection @{ */
    std::size_t memtableEntries() const { return memtable_.size(); }
    std::uint32_t l0Files() const;
    std::uint32_t l1Files() const;
    std::uint64_t flushes() const { return flushes_.value(); }
    std::uint64_t compactions() const { return compactions_.value(); }
    std::uint64_t lastSequence() const { return seq_; }
    /** @} */

  private:
    /** A live sorted table on the device. */
    struct Sst
    {
        std::uint64_t offset = 0; // device byte offset
        std::uint64_t bytes = 0;
        std::uint32_t level = 0;
        std::uint64_t id = 0;
        /** In-memory index/cache of the table's contents. */
        std::map<std::string, std::optional<std::vector<std::uint8_t>>>
            entries;
    };

    wal::LogDevice &log_;
    ssd::SsdDevice &data_;
    RocksConfig cfg_;
    wal::GroupCommitter gc_;

    std::map<std::string, std::optional<std::vector<std::uint8_t>>>
        memtable_;
    std::uint64_t memtableBytes_ = 0;
    std::vector<Sst> tables_; // newest first within a level
    std::uint64_t seq_ = 0;
    /** Framed-record scratch, reused per write. */
    std::vector<std::uint8_t> frame_;
    std::uint64_t flushedSeq_ = 0; // covered by SSTs (in MANIFEST)
    std::uint64_t nextSstId_ = 1;
    std::uint64_t dataAllocPos_ = 0;

    /** Background flush/compaction thread. */
    sim::FifoResource flushThread_{"minirocks.flush"};

    sim::Counter flushes_{"minirocks.flushes"};
    sim::Counter compactions_{"minirocks.compactions"};

    sim::Tick cpu(sim::Tick now, std::size_t bytes) const;
    sim::Tick writeAndCommit(sim::Tick now, const std::string &key,
                             const std::optional<std::vector<std::uint8_t>>
                                 &value);
    sim::Tick flushMemtable(sim::Tick now);
    sim::Tick maybeCompact(sim::Tick now);
    void writeManifest(sim::Tick now);
    std::uint64_t allocData(std::uint64_t bytes);

    static std::vector<std::uint8_t>
    serializeEntries(const std::map<
                     std::string,
                     std::optional<std::vector<std::uint8_t>>> &entries);
    static std::map<std::string, std::optional<std::vector<std::uint8_t>>>
    deserializeEntries(std::span<const std::uint8_t> bytes);
};

} // namespace bssd::db::minirocks

#endif // BSSD_DB_MINIROCKS_MINIROCKS_HH
