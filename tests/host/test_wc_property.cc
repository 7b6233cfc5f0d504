/**
 * @file
 * Property test: the write-combining buffer against a reference
 * model, under long randomized sequences of writes, range flushes,
 * full flushes, natural drains and power drops.
 *
 * Invariants: the sink receives exactly the reference's sequence of
 * posted runs, (offset, length) per call in call order; at the final
 * flush-all the sink memory holds exactly the bytes the reference
 * says were written and not dropped; after a drop, un-flushed bytes
 * never surface.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "host/wc_buffer.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

using namespace bssd;
using namespace bssd::host;

namespace
{

/** One posted run as the sink saw it. */
struct Post
{
    std::uint64_t offset;
    std::uint64_t length;
    bool operator==(const Post &) const = default;
};

/**
 * Byte-accurate reference: fill buffers as per-byte maps in slot
 * order, the sink's memory, and the sink's call sequence.
 *
 * Slots follow the WC buffer's documented policy: a store joins the
 * dirty line with its base, else takes the first clean slot, else a
 * new one (capacity is never reached here). A post walks the line's
 * bytes in address order and emits one call per contiguous run.
 */
class Reference
{
  public:
    explicit Reference(std::uint32_t line_bytes)
        : lineBytes_(line_bytes)
    {}

    void
    write(std::uint64_t off, std::span<const std::uint8_t> data)
    {
        std::size_t pos = 0;
        while (pos < data.size()) {
            const std::uint64_t addr = off + pos;
            const std::uint64_t base = addr - addr % lineBytes_;
            RefLine &line = acquire(base);
            for (; pos < data.size() && off + pos < base + lineBytes_;
                 ++pos)
                line.bytes[off + pos] = data[pos];
            // A completely covered line is posted immediately,
            // mirroring the WC full-line rule.
            if (line.bytes.size() == lineBytes_)
                post(line);
        }
    }

    void
    flushRange(std::uint64_t off, std::uint64_t len)
    {
        for (auto &l : lines_)
            if (l.dirty && l.base + lineBytes_ > off && l.base < off + len)
                post(l);
    }

    void
    flushAll()
    {
        for (auto &l : lines_)
            if (l.dirty)
                post(l);
    }

    void
    drop()
    {
        for (auto &l : lines_) {
            l.bytes.clear();
            l.dirty = false;
        }
    }

    std::optional<std::uint8_t>
    sinkByte(std::uint64_t a) const
    {
        auto it = sink_.find(a);
        return it == sink_.end() ? std::nullopt
                                 : std::optional<std::uint8_t>(it->second);
    }

    const std::vector<Post> &posts() const { return posts_; }

  private:
    struct RefLine
    {
        std::uint64_t base = 0;
        std::map<std::uint64_t, std::uint8_t> bytes;
        bool dirty = false;
    };

    std::uint32_t lineBytes_;
    std::vector<RefLine> lines_;
    std::map<std::uint64_t, std::uint8_t> sink_;
    std::vector<Post> posts_;

    RefLine &
    acquire(std::uint64_t base)
    {
        for (auto &l : lines_)
            if (l.dirty && l.base == base)
                return l;
        for (auto &l : lines_) {
            if (!l.dirty) {
                l.base = base;
                l.dirty = true;
                return l;
            }
        }
        lines_.push_back(RefLine{base, {}, true});
        return lines_.back();
    }

    void
    post(RefLine &line)
    {
        for (auto it = line.bytes.begin(); it != line.bytes.end();) {
            const std::uint64_t start = it->first;
            std::uint64_t next = start;
            for (; it != line.bytes.end() && it->first == next; ++it, ++next)
                sink_[it->first] = it->second;
            posts_.push_back(Post{start, next - start});
        }
        line.bytes.clear();
        line.dirty = false;
    }
};

/**
 * One randomized run with @p line_bytes-byte lines. Capacity is large
 * enough that LRU eviction never fires: eviction order is a modelling
 * detail the reference doesn't track.
 */
void
runAgainstReference(std::uint64_t seed, std::uint32_t line_bytes)
{
    WcConfig cfg;
    cfg.lineBytes = line_bytes;
    cfg.lines = 64;
    std::map<std::uint64_t, std::uint8_t> sink_mem;
    std::vector<Post> posts;
    WcBuffer wc(cfg, [&](sim::Tick ready, std::uint64_t off,
                         std::span<const std::uint8_t> data) {
        posts.push_back(Post{off, data.size()});
        for (std::size_t i = 0; i < data.size(); ++i)
            sink_mem[off + i] = data[i];
        return ready + sim::nsOf(5);
    });
    Reference ref(cfg.lineBytes);

    sim::Rng rng(seed);
    sim::Tick t = 0;
    const std::uint64_t span = 16 * cfg.lineBytes;

    for (int op = 0; op < 600; ++op) {
        double roll = rng.nextDouble();
        if (roll < 0.62) {
            std::uint64_t off = rng.nextBelow(span - 1);
            std::uint64_t len =
                1 + rng.nextBelow(std::min<std::uint64_t>(
                        cfg.lineBytes + 36, span - off));
            std::vector<std::uint8_t> data(len);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            t = wc.write(t, off, data);
            ref.write(off, data);
        } else if (roll < 0.80) {
            std::uint64_t off = rng.nextBelow(span - 1);
            std::uint64_t len = 1 + rng.nextBelow(200);
            t = wc.flushRange(t, off, len);
            ref.flushRange(off, len);
        } else if (roll < 0.92) {
            t = wc.flushAll(t);
            ref.flushAll();
        } else {
            wc.dropAll();
            ref.drop();
        }
    }
    t = wc.flushAll(t);
    ref.flushAll();

    // The sink saw the same runs, in the same order.
    ASSERT_EQ(posts.size(), ref.posts().size());
    for (std::size_t i = 0; i < posts.size(); ++i) {
        ASSERT_EQ(posts[i], ref.posts()[i])
            << "post " << i << ": got (" << posts[i].offset << ", "
            << posts[i].length << "), want (" << ref.posts()[i].offset
            << ", " << ref.posts()[i].length << ")";
    }
    for (std::uint64_t a = 0; a < span; ++a) {
        auto want = ref.sinkByte(a);
        auto it = sink_mem.find(a);
        if (want.has_value()) {
            ASSERT_NE(it, sink_mem.end()) << "addr " << a;
            ASSERT_EQ(it->second, *want) << "addr " << a;
        } else {
            ASSERT_EQ(it, sink_mem.end()) << "addr " << a;
        }
    }
}

class WcProperty : public ::testing::TestWithParam<std::uint64_t>
{};

} // namespace

TEST_P(WcProperty, MatchesReferenceModel)
{
    // x86's 64-byte line (one mask word), plus multi-word lines that
    // are and are not a multiple of 64 bytes.
    for (std::uint32_t line_bytes : {64u, 96u, 128u, 200u}) {
        SCOPED_TRACE("lineBytes " + std::to_string(line_bytes));
        runAgainstReference(GetParam(), line_bytes);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WcProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));
