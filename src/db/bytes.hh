/**
 * @file
 * A byte string that keeps short values inside itself (DESIGN.md
 * section 11).
 *
 * A value of at most kInlineBytes bytes lives in the object; a longer
 * one lives in one heap block that is reused while it is big enough.
 * A store whose values are short (the cluster's 33-64 B payloads,
 * YCSB's 16 B fields) therefore reads a value from the same entry as
 * its key, allocates nothing per write and frees nothing per value at
 * teardown.
 *
 * size() <= kInlineBytes exactly when the value is inline, so a value
 * that shrinks back to the inline size frees its block.
 */

#ifndef BSSD_DB_BYTES_HH
#define BSSD_DB_BYTES_HH

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <utility>

namespace bssd::db
{

class Bytes
{
  public:
    /** Longest value kept inline (one cache line of payload). */
    static constexpr std::size_t kInlineBytes = 64;

    Bytes() = default;
    explicit Bytes(std::span<const std::uint8_t> b) { assign(b); }
    Bytes(const Bytes &o) { assign(o.span()); }
    Bytes(Bytes &&o) noexcept { steal(o); }

    Bytes &
    operator=(const Bytes &o)
    {
        if (this != &o)
            assign(o.span());
        return *this;
    }

    Bytes &
    operator=(Bytes &&o) noexcept
    {
        if (this != &o) {
            release();
            steal(o);
        }
        return *this;
    }

    ~Bytes() { release(); }

    /** Replace the contents with @p b (which must not alias them). */
    void
    assign(std::span<const std::uint8_t> b)
    {
        const std::size_t n = b.size();
        if (n <= kInlineBytes) {
            release();
        } else if (!onHeap() || heap_.cap < n) {
            release();
            heap_.ptr = new std::uint8_t[n];
            heap_.cap = n;
        }
        size_ = static_cast<std::uint32_t>(n);
        if (n > 0)
            std::memcpy(onHeap() ? heap_.ptr : inline_, b.data(), n);
    }

    /** assign() from a contiguous iterator range (std::vector's
     *  spelling, so generic store code takes either type). */
    template <std::contiguous_iterator It>
    void
    assign(It first, It last)
    {
        assign(std::span<const std::uint8_t>(
            std::to_address(first), static_cast<std::size_t>(last - first)));
    }

    std::size_t size() const { return size_; }

    const std::uint8_t *
    data() const
    {
        return onHeap() ? heap_.ptr : inline_;
    }

    const std::uint8_t *begin() const { return data(); }
    const std::uint8_t *end() const { return data() + size_; }

    std::span<const std::uint8_t> span() const { return {data(), size_}; }

    friend bool
    operator==(const Bytes &a, const Bytes &b)
    {
        return a.size_ == b.size_ &&
               (a.size_ == 0 ||
                std::memcmp(a.data(), b.data(), a.size_) == 0);
    }

  private:
    struct Heap
    {
        std::uint8_t *ptr;
        std::size_t cap;
    };

    union
    {
        std::uint8_t inline_[kInlineBytes];
        Heap heap_;
    };
    std::uint32_t size_ = 0;

    bool onHeap() const { return size_ > kInlineBytes; }

    void
    release()
    {
        if (onHeap())
            delete[] heap_.ptr;
        size_ = 0;
    }

    /** Take @p o's contents, leaving it empty. @pre *this is empty. */
    void
    steal(Bytes &o)
    {
        if (o.onHeap())
            heap_ = o.heap_;
        else
            std::memcpy(inline_, o.inline_, o.size_);
        size_ = o.size_;
        o.size_ = 0;
    }
};

} // namespace bssd::db

#endif // BSSD_DB_BYTES_HH
