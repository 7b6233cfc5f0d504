/**
 * @file
 * A flat hash map for the stores' keyed datasets (DESIGN.md section
 * 11).
 *
 * Entries (std::pair<K, V>) are numbered densely 0..size()-1 and live
 * in fixed chunks of kChunkEntries; a separate open-addressing index
 * of (32-bit hash, entry + 1) slots, probed linearly, finds them.
 * Compared with std::unordered_map this keeps a lookup to one index
 * probe run plus one entry access, allocates no per-entry node, and
 * frees the whole dataset as a few large blocks.
 *
 *  - Erase uses backward-shift deletion (no tombstones), then moves
 *    the last entry into the erased entry's place, so the entries
 *    stay dense.
 *  - The index doubles at 3/4 load; nothing is reserved up front.
 *  - Chunks are allocated as the entries reach them and never move,
 *    so growth copies no entry and leaves no 2x capacity slack. One
 *    empty chunk is kept spare, so inserts and erases at a chunk
 *    boundary do not allocate and free in turn.
 *  - Chunks and the index come from db::PageAllocator, so a large
 *    map's memory is mapped from the OS and returned to it when freed
 *    rather than left cached in a malloc arena.
 *  - Iteration walks the entries in number order. That order is a
 *    deterministic function of the map's operation history (appends,
 *    and last-into-hole moves on erase), but it is not key order.
 *
 * A caller that already knows a key's hash (FlatMap::hash) passes a
 * Hashed to find/try_emplace, and can prefetch the key's index slot
 * and then its entry ahead of the access (prefetchSlot,
 * prefetchEntry).
 *
 * Any mutation (try_emplace, insert_or_assign, erase, clear) may move
 * entries and invalidates every iterator, reference and pointer into
 * the map. Callers copy what they need out before mutating.
 */

#ifndef BSSD_DB_FLAT_MAP_HH
#define BSSD_DB_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "db/page_allocator.hh"

namespace bssd::db
{

/**
 * FlatMap's default hash: std::hash Fibonacci-mixed to 32 bits, so
 * integer keys (identity std::hash) spread across the index too.
 */
template <class K>
struct FlatHash
{
    std::uint32_t
    operator()(const K &key) const
    {
        const std::uint64_t h =
            static_cast<std::uint64_t>(std::hash<K>{}(key)) *
            0x9e3779b97f4a7c15ull;
        return static_cast<std::uint32_t>(h >> 32);
    }
};

/** A flat map from K to V; @p Hash maps a key to 32 bits. */
template <class K, class V, class Hash = FlatHash<K>>
class FlatMap
{
  public:
    using key_type = K;
    using mapped_type = V;
    using value_type = std::pair<K, V>;

    /** Entries per chunk. */
    static constexpr std::size_t kChunkEntries = 4096;

    /** A key with its hash (FlatMap::hash(key)), computed once by the
     *  caller. The key must outlive the call it is passed to. */
    struct Hashed
    {
        const K &key;
        std::uint32_t hash;
    };

    template <bool Const>
    class Iter
    {
      public:
        using value_type = FlatMap::value_type;
        using difference_type = std::ptrdiff_t;
        using reference =
            std::conditional_t<Const, const value_type &, value_type &>;
        using pointer =
            std::conditional_t<Const, const value_type *, value_type *>;

        Iter() = default;
        /** iterator -> const_iterator. */
        template <bool C = Const, class = std::enable_if_t<C>>
        Iter(const Iter<false> &o) : chunks_(o.chunks_), i_(o.i_)
        {
        }

        reference operator*() const { return entryIn(chunks_, i_); }
        pointer operator->() const { return &**this; }

        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        Iter
        operator+(difference_type n) const
        {
            return {chunks_, i_ + static_cast<std::size_t>(n)};
        }
        Iter operator-(difference_type n) const { return *this + -n; }
        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        friend class FlatMap;
        template <bool>
        friend class Iter;
        Iter(value_type *const *chunks, std::size_t i)
            : chunks_(chunks), i_(i)
        {
        }

        value_type *const *chunks_ = nullptr;
        std::size_t i_ = 0;
    };
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;
    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;
    ~FlatMap() { release(); }

    static std::uint32_t hash(const K &key) { return Hash{}(key); }
    static Hashed hashed(const K &key) { return {key, hash(key)}; }

    std::size_t size() const { return size_; }

    iterator begin() { return {chunks_.data(), 0}; }
    iterator end() { return {chunks_.data(), size_}; }
    const_iterator begin() const { return {chunks_.data(), 0}; }
    const_iterator end() const { return {chunks_.data(), size_}; }

    iterator find(const Hashed &k) { return begin() + entryOf(k); }
    const_iterator
    find(const Hashed &k) const
    {
        return begin() + entryOf(k);
    }
    iterator find(const K &key) { return find(hashed(key)); }
    const_iterator find(const K &key) const { return find(hashed(key)); }

    bool contains(const K &key) const { return find(key) != end(); }

    /** Insert (key, V(args...)) unless @p k's key is present. */
    template <class... Args>
    std::pair<iterator, bool>
    try_emplace(const Hashed &k, Args &&...args)
    {
        if (index_.empty())
            grow();
        std::size_t s = slotOf(k);
        if (index_[s].entry != 0)
            return {begin() + (index_[s].entry - 1), false};
        if ((size_ + 1) * 4 > index_.size() * 3) {
            grow();
            s = slotOf(k);
        }
        if (size_ == chunks_.size() * kChunkEntries)
            chunks_.push_back(Alloc{}.allocate(kChunkEntries));
        std::construct_at(&entry(size_), std::piecewise_construct,
                          std::forward_as_tuple(k.key),
                          std::forward_as_tuple(
                              std::forward<Args>(args)...));
        ++size_;
        index_[s] = Slot{k.hash, static_cast<std::uint32_t>(size_)};
        return {end() - 1, true};
    }

    template <class... Args>
    std::pair<iterator, bool>
    try_emplace(const K &key, Args &&...args)
    {
        return try_emplace(hashed(key), std::forward<Args>(args)...);
    }

    /** map[key] = value. */
    template <class M>
    std::pair<iterator, bool>
    insert_or_assign(const K &key, M &&value)
    {
        auto r = try_emplace(key);
        r.first->second = std::forward<M>(value);
        return r;
    }

    /** Remove the entry at @p it (the last entry moves into its place). */
    void
    erase(const_iterator it)
    {
        const auto e = static_cast<std::uint32_t>(it.i_);
        unlink(slotOfEntry(e));
        const auto last = static_cast<std::uint32_t>(size_ - 1);
        if (e != last) {
            index_[slotOfEntry(last)].entry = e + 1;
            entry(e) = std::move(entry(last));
        }
        std::destroy_at(&entry(last));
        --size_;
        // Keep at most one empty chunk past the live entries.
        const std::size_t used = (size_ + kChunkEntries - 1) / kChunkEntries;
        while (chunks_.size() > used + 1) {
            Alloc{}.deallocate(chunks_.back(), kChunkEntries);
            chunks_.pop_back();
        }
    }

    void
    clear()
    {
        release();
        std::fill(index_.begin(), index_.end(), Slot{});
    }

    /** Prefetch the index slot @p h (a FlatMap::hash) is homed at. */
    void
    prefetchSlot(std::uint32_t h) const
    {
        if (!index_.empty())
            __builtin_prefetch(&index_[h & mask()]);
    }

    /**
     * Prefetch the entry the index holds for hash @p h, if any: walks
     * the probe run in the index (best issued after prefetchSlot(h)
     * has had time to land) but does not touch any entry.
     */
    void
    prefetchEntry(std::uint32_t h) const
    {
        if (index_.empty())
            return;
        for (std::size_t s = h & mask(); index_[s].entry != 0;
             s = (s + 1) & mask()) {
            if (index_[s].hash == h) {
                const auto *p = reinterpret_cast<const char *>(
                    &entry(index_[s].entry - 1));
                __builtin_prefetch(p);
                __builtin_prefetch(p + sizeof(value_type) - 1);
                return;
            }
        }
    }

  private:
    using Alloc = PageAllocator<value_type>;

    /** entry == 0 marks an empty slot; otherwise entry number entry-1. */
    struct Slot
    {
        std::uint32_t hash = 0;
        std::uint32_t entry = 0;
    };

    using Index = std::vector<Slot, PageAllocator<Slot>>;

    std::vector<value_type *> chunks_; // kChunkEntries entries each
    std::size_t size_ = 0;
    Index index_; // power-of-two size, or empty

    static value_type &
    entryIn(value_type *const *chunks, std::size_t e)
    {
        return chunks[e / kChunkEntries][e % kChunkEntries];
    }

    value_type &entry(std::size_t e) { return entryIn(chunks_.data(), e); }
    const value_type &
    entry(std::size_t e) const
    {
        return entryIn(chunks_.data(), e);
    }

    std::size_t mask() const { return index_.size() - 1; }

    /** Destroy every entry and free every chunk. */
    void
    release()
    {
        for (std::size_t e = 0; e < size_; ++e)
            std::destroy_at(&entry(e));
        size_ = 0;
        for (value_type *c : chunks_)
            Alloc{}.deallocate(c, kChunkEntries);
        chunks_.clear();
    }

    /** Entry number of @p k's key, or size() when absent. */
    std::ptrdiff_t
    entryOf(const Hashed &k) const
    {
        const std::size_t e = index_.empty() ? 0 : index_[slotOf(k)].entry;
        return static_cast<std::ptrdiff_t>(e == 0 ? size() : e - 1);
    }

    /** The slot holding @p k's key, or the empty slot ending its probe.
     *  @pre the index is not empty. */
    std::size_t
    slotOf(const Hashed &k) const
    {
        for (std::size_t s = k.hash & mask();; s = (s + 1) & mask()) {
            const Slot &slot = index_[s];
            if (slot.entry == 0 ||
                (slot.hash == k.hash && entry(slot.entry - 1).first == k.key))
                return s;
        }
    }

    /** The slot pointing at entry @p e. */
    std::size_t
    slotOfEntry(std::uint32_t e) const
    {
        std::size_t s = hash(entry(e).first) & mask();
        while (index_[s].entry != e + 1)
            s = (s + 1) & mask();
        return s;
    }

    /**
     * Empty slot @p hole by backward shift: each later slot of the
     * probe run moves back into the hole when the hole lies between
     * its home slot and its current slot.
     */
    void
    unlink(std::size_t hole)
    {
        for (std::size_t s = (hole + 1) & mask(); index_[s].entry != 0;
             s = (s + 1) & mask()) {
            const std::size_t home = index_[s].hash & mask();
            if (((s - home) & mask()) >= ((s - hole) & mask())) {
                index_[hole] = index_[s];
                hole = s;
            }
        }
        index_[hole] = Slot{};
    }

    void
    grow()
    {
        Index old = std::move(index_);
        index_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
        for (const Slot &slot : old) {
            if (slot.entry == 0)
                continue;
            std::size_t s = slot.hash & mask();
            while (index_[s].entry != 0)
                s = (s + 1) & mask();
            index_[s] = slot;
        }
    }
};

} // namespace bssd::db

#endif // BSSD_DB_FLAT_MAP_HH
