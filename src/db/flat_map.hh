/**
 * @file
 * A flat hash map for the stores' keyed datasets (DESIGN.md section
 * 11).
 *
 * Entries live in one dense std::vector<std::pair<K, V>>; a separate
 * open-addressing index of (32-bit hash, entry + 1) slots, probed
 * linearly, finds them. Compared with std::unordered_map this keeps a
 * lookup to one index probe run plus one entry access, allocates no
 * per-entry node, and frees the whole dataset as two arrays.
 *
 *  - Erase uses backward-shift deletion (no tombstones), then moves
 *    the last entry into the erased entry's place, so the entries
 *    stay dense.
 *  - The index doubles at 3/4 load; nothing is reserved up front.
 *  - Iteration walks the entry vector. Its order is a deterministic
 *    function of the map's operation history (appends, and last-into-
 *    hole moves on erase), but it is not key order.
 *
 * Any mutation (try_emplace, insert_or_assign, erase, clear) may move
 * entries and invalidates every iterator, reference and pointer into
 * the map. Callers copy what they need out before mutating.
 */

#ifndef BSSD_DB_FLAT_MAP_HH
#define BSSD_DB_FLAT_MAP_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

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
    using value_type = std::pair<K, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator = typename std::vector<value_type>::const_iterator;

    std::size_t size() const { return entries_.size(); }

    iterator begin() { return entries_.begin(); }
    iterator end() { return entries_.end(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

    iterator find(const K &key) { return begin() + entryOf(key); }
    const_iterator
    find(const K &key) const
    {
        return begin() + entryOf(key);
    }

    bool contains(const K &key) const { return find(key) != end(); }

    /** Insert (key, V(args...)) unless @p key is present. */
    template <class... Args>
    std::pair<iterator, bool>
    try_emplace(const K &key, Args &&...args)
    {
        const std::uint32_t h = hashOf(key);
        if (index_.empty())
            grow();
        std::size_t s = slotOf(key, h);
        if (index_[s].entry != 0)
            return {begin() + (index_[s].entry - 1), false};
        if ((entries_.size() + 1) * 4 > index_.size() * 3) {
            grow();
            s = slotOf(key, h);
        }
        entries_.emplace_back(std::piecewise_construct,
                              std::forward_as_tuple(key),
                              std::forward_as_tuple(
                                  std::forward<Args>(args)...));
        index_[s] = Slot{h, static_cast<std::uint32_t>(entries_.size())};
        return {end() - 1, true};
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
        const auto e = static_cast<std::uint32_t>(it - entries_.cbegin());
        unlink(slotOfEntry(e));
        const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
        if (e != last) {
            index_[slotOfEntry(last)].entry = e + 1;
            entries_[e] = std::move(entries_[last]);
        }
        entries_.pop_back();
    }

    void
    clear()
    {
        entries_.clear();
        std::fill(index_.begin(), index_.end(), Slot{});
    }

  private:
    /** entry == 0 marks an empty slot; otherwise entries_[entry-1]. */
    struct Slot
    {
        std::uint32_t hash = 0;
        std::uint32_t entry = 0;
    };

    std::vector<value_type> entries_;
    std::vector<Slot> index_; // power-of-two size, or empty

    static std::uint32_t hashOf(const K &key) { return Hash{}(key); }

    std::size_t mask() const { return index_.size() - 1; }

    /** entries_ position of @p key, or size() when absent. */
    std::ptrdiff_t
    entryOf(const K &key) const
    {
        const std::size_t e =
            index_.empty() ? 0 : index_[slotOf(key, hashOf(key))].entry;
        return static_cast<std::ptrdiff_t>(e == 0 ? size() : e - 1);
    }

    /** The slot holding @p key, or the empty slot ending its probe.
     *  @pre the index is not empty. */
    std::size_t
    slotOf(const K &key, std::uint32_t h) const
    {
        for (std::size_t s = h & mask();; s = (s + 1) & mask()) {
            const Slot &slot = index_[s];
            if (slot.entry == 0 ||
                (slot.hash == h && entries_[slot.entry - 1].first == key))
                return s;
        }
    }

    /** The slot pointing at entries_[e]. */
    std::size_t
    slotOfEntry(std::uint32_t e) const
    {
        std::size_t s = hashOf(entries_[e].first) & mask();
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
        std::vector<Slot> old = std::move(index_);
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
