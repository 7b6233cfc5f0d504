/**
 * @file
 * Host-side bookkeeping shared by the stores: an order-independent
 * content digest and a pre-image journal, both kept up to date per
 * mutation so neither a digest nor a crash-recovery snapshot ever
 * costs a walk over the whole dataset (DESIGN.md section 11).
 *
 * Content digest. A store's digest is the wrapping sum of
 * entryHash(key, value) over its live entries: a multiset hash. A sum
 * does not depend on the order entries were added or on the hash
 * map's bucket layout, so it is maintained in O(1) per set/del (add
 * the new entry's hash, subtract the old one's) and equal contents
 * always give equal digests. entryHash is a well-mixed 64-bit hash
 * that consumes 8 bytes per step.
 *
 * Pre-image journal. A store "snapshots" (AOF rewrite, checkpoint) by
 * clearing the journal instead of copying the map. From then on every
 * put/erase moves the value it replaces - or the fact that the key was
 * absent - into the journal; the value was being overwritten anyway,
 * so moving it costs almost nothing. rollBack() undoes the journal
 * newest-first, which rebuilds the snapshot-time map exactly. Before
 * the first snapshot the snapshot is the empty map, so nothing is
 * journaled and rollBack() just clears the map.
 */

#ifndef BSSD_DB_STORE_LEDGER_HH
#define BSSD_DB_STORE_LEDGER_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace bssd::db
{

/** Incremental 64-bit hash over a byte sequence, 8 bytes per step. */
class EntryHasher
{
  public:
    /** Absorb @p bytes followed by their length (so "ab"+"c" and
     *  "a"+"bc" differ). */
    void
    bytes(std::span<const std::uint8_t> b)
    {
        const std::uint8_t *p = b.data();
        std::size_t n = b.size();
        if (n >= 32) {
            // Four independent lanes over 32-byte stripes keep long
            // values (1 KiB YCSB records) off one multiply chain.
            std::uint64_t lane[4] = {h_ + kPrime1, h_ + kPrime2, h_,
                                     h_ - kPrime1};
            for (; n >= 32; p += 32, n -= 32)
                for (int i = 0; i < 4; ++i)
                    lane[i] = round(lane[i], load(p + 8 * i, 8));
            for (std::uint64_t v : lane)
                word(v);
        }
        for (; n >= 8; p += 8, n -= 8)
            word(load(p, 8));
        if (n > 0)
            word(load(p, n));
        word(b.size());
    }

    /** Absorb one 64-bit word. */
    void word(std::uint64_t w) { h_ = round(h_, w); }

    /** The avalanche-finalized hash (splitmix64's finalizer). */
    std::uint64_t
    finish() const
    {
        std::uint64_t x = h_;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return x;
    }

  private:
    static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
    static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;

    /** xxHash64's accumulator round. */
    static std::uint64_t
    round(std::uint64_t acc, std::uint64_t w)
    {
        acc += w * kPrime2;
        acc = (acc << 31) | (acc >> 33);
        return acc * kPrime1;
    }

    /** Little-endian load of @p n <= 8 bytes (the compiler turns the
     *  full-word case into one load on little-endian hosts). */
    static std::uint64_t
    load(const std::uint8_t *p, std::size_t n)
    {
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < n; ++i)
            x |= std::uint64_t(p[i]) << (8 * i);
        return x;
    }

    std::uint64_t h_ = 0x27d4eb2f165667c5ull;
};

/** The per-entry hash the content digests sum: key bytes, then value
 *  bytes, each length-delimited. */
inline std::uint64_t
entryHash(std::span<const std::uint8_t> key,
          std::span<const std::uint8_t> value)
{
    EntryHasher h;
    h.bytes(key);
    h.bytes(value);
    return h.finish();
}

inline std::uint64_t
entryHash(const std::string &key, std::span<const std::uint8_t> value)
{
    return entryHash(
        {reinterpret_cast<const std::uint8_t *>(key.data()), key.size()},
        value);
}

/** Integer keys hash as their 8 little-endian bytes. */
inline std::uint64_t
entryHash(std::uint64_t key, std::span<const std::uint8_t> value)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(key >> (8 * i));
    return entryHash(std::span<const std::uint8_t>(b), value);
}

/**
 * Digest and pre-image journal of one keyed map of byte values
 * (std::map or db::FlatMap). The ledger does not own the map:
 * the store declares it (so its ordering is visible where it lives)
 * and routes every mutation through put()/erase() so the digest and
 * journal stay in step. The ledger never iterates the map.
 *
 * The entry hash is found by overload resolution on the key type
 * (the overloads above, or one next to a store-specific key type).
 */
template <class Map>
class StoreLedger
{
  public:
    using Key = typename Map::key_type;
    using Value = std::vector<std::uint8_t>;

    explicit StoreLedger(Map &map) : map_(map) {}

    StoreLedger(const StoreLedger &) = delete;
    StoreLedger &operator=(const StoreLedger &) = delete;

    /** map[key] = value. */
    void
    put(const Key &key, std::span<const std::uint8_t> value)
    {
        auto [it, inserted] = map_.try_emplace(key);
        if (inserted) {
            if (journaling_)
                journal_.emplace_back(key, std::nullopt);
        } else {
            digest_ -= entryHash(key, it->second);
            if (journaling_)
                journal_.emplace_back(key, std::move(it->second));
        }
        it->second.assign(value.begin(), value.end());
        digest_ += entryHash(key, it->second);
    }

    /** Remove @p key if present. */
    void
    erase(const Key &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return;
        digest_ -= entryHash(key, it->second);
        if (journaling_)
            journal_.emplace_back(key, std::move(it->second));
        map_.erase(it);
    }

    /** The current map contents become the snapshot. */
    void
    snapshot()
    {
        journaling_ = true;
        journal_.clear();
    }

    /** Restore the map to the last snapshot (empty before any). */
    void
    rollBack()
    {
        if (!journaling_) {
            map_.clear();
            digest_ = 0;
            return;
        }
        for (auto r = journal_.rbegin(); r != journal_.rend(); ++r) {
            auto &[key, before] = *r;
            auto it = map_.find(key);
            if (it != map_.end()) {
                digest_ -= entryHash(key, it->second);
                if (!before)
                    map_.erase(it);
            }
            if (before) {
                digest_ += entryHash(key, *before);
                map_.insert_or_assign(key, std::move(*before));
            }
        }
        journal_.clear();
    }

    /** Wrapping sum of entryHash over the live entries. */
    std::uint64_t digest() const { return digest_; }

    /** Pre-images held since the last snapshot (tests). */
    std::size_t journalSize() const { return journal_.size(); }

  private:
    Map &map_;
    std::uint64_t digest_ = 0;
    bool journaling_ = false;
    std::vector<std::pair<Key, std::optional<Value>>> journal_;
};

} // namespace bssd::db

#endif // BSSD_DB_STORE_LEDGER_HH
