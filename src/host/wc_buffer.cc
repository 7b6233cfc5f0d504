#include "host/wc_buffer.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace bssd::host
{

namespace
{

constexpr std::uint64_t kWordBits = 64;

/** Set bits [lo, lo+n) of @p mask, one mask operation per word. */
void
setBits(std::vector<std::uint64_t> &mask, std::uint64_t lo, std::uint64_t n)
{
    const std::uint64_t hi = lo + n;
    while (lo < hi) {
        const std::uint64_t bit = lo % kWordBits;
        const std::uint64_t run = std::min(kWordBits - bit, hi - lo);
        const std::uint64_t ones =
            run == kWordBits ? ~std::uint64_t(0)
                             : ((std::uint64_t(1) << run) - 1) << bit;
        mask[lo / kWordBits] |= ones;
        lo += run;
    }
}

/**
 * First bit index >= @p from whose mask value is @p set, or @p limit
 * when there is none below it.
 */
std::uint64_t
findBit(const std::vector<std::uint64_t> &mask, std::uint64_t from,
        std::uint64_t limit, bool set)
{
    if (from >= limit)
        return limit;
    std::size_t w = from / kWordBits;
    std::uint64_t word = (set ? mask[w] : ~mask[w]) &
                         (~std::uint64_t(0) << (from % kWordBits));
    while (word == 0) {
        if (++w == mask.size())
            return limit;
        word = set ? mask[w] : ~mask[w];
    }
    return std::min<std::uint64_t>(
        w * kWordBits + static_cast<std::uint64_t>(std::countr_zero(word)),
        limit);
}

/**
 * Call @p fn(start, len) for each maximal run of valid bytes in a
 * @p lineBytes line, in address order, until @p fn returns false.
 */
template <class Fn>
void
forEachRun(const std::vector<std::uint64_t> &mask, std::uint64_t lineBytes,
           Fn &&fn)
{
    std::uint64_t i = findBit(mask, 0, lineBytes, true);
    while (i < lineBytes) {
        const std::uint64_t j = findBit(mask, i, lineBytes, false);
        if (!fn(i, j - i))
            return;
        i = findBit(mask, j, lineBytes, true);
    }
}

std::uint64_t
popcount(const std::vector<std::uint64_t> &mask)
{
    std::uint64_t n = 0;
    for (std::uint64_t w : mask)
        n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

} // namespace

WcBuffer::WcBuffer(const WcConfig &cfg, Sink sink)
    : cfg_(cfg), sink_(std::move(sink))
{
    if (cfg_.lineBytes == 0 || cfg_.lines == 0)
        sim::fatal("WC buffer needs at least one line of non-zero size");
    if (!sink_)
        sim::fatal("WC buffer requires a posted-write sink");
}

bool
WcBuffer::lineFull(const Line &line) const
{
    const std::uint64_t tail = cfg_.lineBytes % kWordBits;
    const std::uint64_t last =
        tail == 0 ? ~std::uint64_t(0) : (std::uint64_t(1) << tail) - 1;
    for (std::size_t w = 0; w + 1 < line.valid.size(); ++w)
        if (line.valid[w] != ~std::uint64_t(0))
            return false;
    return line.valid.back() == last;
}

WcBuffer::Line *
WcBuffer::findLine(std::uint64_t base)
{
    for (auto &l : lines_)
        if (l.dirty && l.base == base)
            return &l;
    return nullptr;
}

sim::Tick
WcBuffer::evict(sim::Tick now, Line &line)
{
    if (!line.dirty)
        return now;
    sim::tracepointHit(faults_, tracer_, sim::Tp::wcEvict, now);
    // Post each contiguous run of valid bytes within the line.
    forEachRun(line.valid, cfg_.lineBytes,
               [&](std::uint64_t start, std::uint64_t len) {
                   now = sink_(now, line.base + start,
                               std::span<const std::uint8_t>(
                                   line.data.data() + start, len));
                   return true;
               });
    line.dirty = false;
    return now;
}

void
WcBuffer::claim(Line &line, std::uint64_t base)
{
    line.base = base;
    std::fill(line.valid.begin(), line.valid.end(), 0);
    line.dirty = true;
    line.lruStamp = ++lruCounter_;
}

WcBuffer::Line &
WcBuffer::acquireLine(sim::Tick &now, std::uint64_t base)
{
    if (Line *l = findLine(base)) {
        l->lruStamp = ++lruCounter_;
        return *l;
    }
    // Reuse a clean slot if available.
    for (auto &l : lines_) {
        if (!l.dirty) {
            claim(l, base);
            return l;
        }
    }
    if (lines_.size() < cfg_.lines) {
        Line &l = lines_.emplace_back();
        l.data.assign(cfg_.lineBytes, 0);
        l.valid.assign((cfg_.lineBytes + kWordBits - 1) / kWordBits, 0);
        claim(l, base);
        return l;
    }
    // Capacity pressure: evict the least recently used line.
    auto victim = std::min_element(
        lines_.begin(), lines_.end(), [](const Line &a, const Line &b) {
            return a.lruStamp < b.lruStamp;
        });
    now = evict(now, *victim);
    evictions_.add();
    claim(*victim, base);
    return *victim;
}

sim::Tick
WcBuffer::write(sim::Tick now, std::uint64_t offset,
                std::span<const std::uint8_t> data)
{
    std::uint64_t pos = 0;
    std::uint64_t lines_touched = 0;
    while (pos < data.size()) {
        std::uint64_t addr = offset + pos;
        std::uint64_t base = addr - (addr % cfg_.lineBytes);
        std::uint64_t in_line = addr - base;
        std::uint64_t n =
            std::min<std::uint64_t>(cfg_.lineBytes - in_line,
                                    data.size() - pos);
        Line &line = acquireLine(now, base);
        std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(pos), n,
                    line.data.begin() + static_cast<std::ptrdiff_t>(in_line));
        setBits(line.valid, in_line, n);
        ++lines_touched;
        // A completely filled line combines into one burst and is
        // posted immediately (x86 WC behaviour for streaming stores).
        if (lineFull(line))
            now = evict(now, line);
        pos += n;
    }
    return now + lines_touched * cfg_.storeCostPerLine;
}

sim::Tick
WcBuffer::flushRange(sim::Tick now, std::uint64_t offset, std::uint64_t len)
{
    sim::tracepointHit(faults_, tracer_, sim::Tp::wcFlush, now);
    std::uint64_t end =
        len > ~std::uint64_t(0) - offset ? ~std::uint64_t(0) : offset + len;
    // clflush executes once per cache line covered by the range,
    // whether or not the line currently sits in a WC buffer.
    std::uint64_t first_line = offset / cfg_.lineBytes;
    std::uint64_t last_line = (end - 1) / cfg_.lineBytes;
    now += (last_line - first_line + 1) * cfg_.clflushCost;
    for (auto &l : lines_) {
        if (!l.dirty)
            continue;
        if (l.base + cfg_.lineBytes <= offset || l.base >= end)
            continue;
        now = evict(now, l);
    }
    // clflush is only ordered by mfence; the pair is indivisible here.
    now += cfg_.mfenceCost;
    return now;
}

sim::Tick
WcBuffer::flushAll(sim::Tick now)
{
    sim::tracepointHit(faults_, tracer_, sim::Tp::wcFlush, now);
    for (auto &l : lines_) {
        if (!l.dirty)
            continue;
        now += cfg_.clflushCost;
        now = evict(now, l);
    }
    now += cfg_.mfenceCost;
    return now;
}

sim::Tick
WcBuffer::drainAll(sim::Tick now)
{
    for (auto &l : lines_)
        if (l.dirty)
            now = evict(now, l);
    return now;
}

std::uint64_t
WcBuffer::dropAll()
{
    const bool torn = faults_ && faults_->wcPartialLineOnPowerCut() &&
                      crashSink_;
    std::uint64_t lost = 0;
    for (auto &l : lines_) {
        if (!l.dirty)
            continue;
        const std::uint64_t valid = popcount(l.valid);
        std::uint64_t keep = torn ? faults_->wcPartialKeep(valid) : 0;
        if (keep > 0) {
            // Deliver the first `keep` valid bytes (address order), as
            // contiguous runs: those stores had already been posted.
            std::uint64_t left = keep;
            forEachRun(l.valid, cfg_.lineBytes,
                       [&](std::uint64_t start, std::uint64_t len) {
                           len = std::min(len, left);
                           crashSink_(l.base + start,
                                      std::span<const std::uint8_t>(
                                          l.data.data() + start, len));
                           left -= len;
                           return left > 0;
                       });
        }
        lost += valid - keep;
        l.dirty = false;
    }
    return lost;
}

std::uint32_t
WcBuffer::dirtyLines() const
{
    std::uint32_t n = 0;
    for (const auto &l : lines_)
        n += l.dirty ? 1 : 0;
    return n;
}

std::uint64_t
WcBuffer::dirtyBytes() const
{
    std::uint64_t n = 0;
    for (const auto &l : lines_)
        if (l.dirty)
            n += popcount(l.valid);
    return n;
}

} // namespace bssd::host
