/**
 * @file
 * miniredis: a single-threaded in-memory key-value store with an
 * append-only file, standing in for Redis 3.2.4 (Section IV-B).
 *
 * Every write command is serialised into the AOF and committed
 * immediately (appendfsync=always semantics). Being single-threaded,
 * Redis cannot group commits - each command pays the full durability
 * latency, which is why the paper's Fig. 9 shows Redis gaining the
 * most from 2B-SSD's sub-microsecond BA commit. The paper also skips
 * double buffering for Redis to respect its single-threaded design;
 * that is a BaWal configuration here.
 *
 * An AOF rewrite (BGREWRITEAOF) compacts the log into a snapshot of
 * the live dataset when the region fills. The snapshot is kept as a
 * journal of pre-images since the rewrite (db::StoreLedger), not as a
 * copy of the dataset.
 */

#ifndef BSSD_DB_MINIREDIS_MINIREDIS_HH
#define BSSD_DB_MINIREDIS_MINIREDIS_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "db/flat_map.hh"
#include "db/store_ledger.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "wal/log_device.hh"

namespace bssd::db::miniredis
{

/** Cost model of the command-processing loop. */
struct RedisConfig
{
    /** Per-command cost: event loop, protocol parse, dict op, and
     *  the loopback client round trip of redis-benchmark. Calibrated
     *  to the Fig. 9 bands (ULL ~ DC parity for Redis). */
    sim::Tick commandCpu = sim::usOf(30);
    /** Extra CPU per KiB of value handled. */
    sim::Tick cpuPerKib = sim::usOf(4);
};

/** The single-threaded store. */
class MiniRedis
{
  public:
    MiniRedis(wal::LogDevice &aof, const RedisConfig &cfg = {});

    /** SET key value. @return completion (durable) time. */
    sim::Tick set(sim::Tick now, const std::string &key,
                  std::span<const std::uint8_t> value);

    /** DEL key. */
    sim::Tick del(sim::Tick now, const std::string &key);

    /** INCR key (numeric string value). */
    sim::Tick incr(sim::Tick now, const std::string &key,
                   std::int64_t *result = nullptr);

    /** GET key. */
    sim::Tick get(sim::Tick now, const std::string &key,
                  std::optional<std::vector<std::uint8_t>> *out = nullptr)
        const;

    /** Replay the durable AOF after a crash. */
    void recover();

    /** @name Introspection @{ */
    std::size_t keys() const { return store_.size(); }
    bool exists(const std::string &k) const { return store_.contains(k); }
    std::uint64_t aofRewrites() const { return rewrites_.value(); }
    std::uint64_t commandsProcessed() const { return commands_.value(); }

    /**
     * Order-independent digest of the live dataset: the wrapping sum
     * of db::entryHash(key, value) over every live entry, kept up to
     * date on every set/del (DESIGN.md section 11), so this is a field
     * read. Two stores with the same contents hash identically
     * regardless of insertion order — the parallel-engine determinism
     * tests compare final store contents across thread counts with
     * this.
     */
    std::uint64_t contentHash() const { return ledger_.digest(); }

    /**
     * Visit every live (key, value) pair in the store's own entry
     * order. That order follows the op history, not the keys, so a
     * caller may only fold the visits into something order-independent:
     * a commutative fold (sum, count) or a min/max selection. Anything
     * order-sensitive (issuing ops, emitting output) must collect and
     * sort first. The references passed to @p fn are valid only until
     * the store's next mutation (db::FlatMap moves entries).
     */
    template <class Fn>
    void
    forEachUnordered(Fn &&fn) const
    {
        for (const auto &[key, value] : store_)
            fn(key, std::span<const std::uint8_t>(value));
    }

    /** AOF pre-images held for recovery since the last rewrite. */
    std::size_t journalSize() const { return ledger_.journalSize(); }
    /** @} */

  private:
    wal::LogDevice &aof_;
    RedisConfig cfg_;
    // GET/SET/DEL address the store by key, the AOF rewrite snapshot
    // is a pre-image journal (ledger_), recovery replays AOF records
    // in append order, and the only walk is forEachUnordered()
    // (DESIGN.md section 11).
    FlatMap<std::string, std::vector<std::uint8_t>> store_;
    /** Content digest + pre-images since the last AOF rewrite. */
    StoreLedger<decltype(store_)> ledger_{store_};
    std::uint64_t seq_ = 0;
    /** AOF sequence number the last rewrite's dataset covers. */
    std::uint64_t snapshotSeq_ = 0;

    /** Per-command scratch, reused so a command allocates nothing:
     *  the encoded AOF command, its framed record, and the key text
     *  apply() decodes. */
    std::vector<std::uint8_t> cmd_;
    std::vector<std::uint8_t> frame_;
    std::string key_;

    sim::Counter rewrites_{"miniredis.aofRewrites"};
    sim::Counter commands_{"miniredis.commands"};

    sim::Tick cpu(sim::Tick now, std::size_t bytes) const;
    void encode(std::uint8_t cmd, const std::string &key,
                std::span<const std::uint8_t> value);
    sim::Tick logCommand(sim::Tick now);
    sim::Tick maybeRewriteAof(sim::Tick now);
    void apply(std::span<const std::uint8_t> payload);
};

} // namespace bssd::db::miniredis

#endif // BSSD_DB_MINIREDIS_MINIREDIS_HH
