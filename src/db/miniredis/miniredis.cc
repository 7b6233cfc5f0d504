#include "db/miniredis/miniredis.hh"

#include <charconv>

#include "sim/logging.hh"
#include "wal/record.hh"

namespace bssd::db::miniredis
{

namespace
{

constexpr std::uint8_t cmdSet = 1;
constexpr std::uint8_t cmdDel = 2;

void
put32(std::vector<std::uint8_t> &v, std::uint32_t x)
{
    for (int i = 0; i < 4; ++i)
        v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

std::uint32_t
get32(std::span<const std::uint8_t> b, std::size_t &pos)
{
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i)
        x |= std::uint32_t(b[pos + i]) << (8 * i);
    pos += 4;
    return x;
}

} // namespace

MiniRedis::MiniRedis(wal::LogDevice &aof, const RedisConfig &cfg)
    : aof_(aof), cfg_(cfg)
{
}

void
MiniRedis::encode(std::uint8_t cmd, const std::string &key,
                  std::span<const std::uint8_t> value)
{
    cmd_.clear();
    cmd_.push_back(cmd);
    put32(cmd_, static_cast<std::uint32_t>(key.size()));
    cmd_.insert(cmd_.end(), key.begin(), key.end());
    put32(cmd_, static_cast<std::uint32_t>(value.size()));
    cmd_.insert(cmd_.end(), value.begin(), value.end());
}

sim::Tick
MiniRedis::cpu(sim::Tick now, std::size_t bytes) const
{
    return now + cfg_.commandCpu +
           static_cast<sim::Tick>(static_cast<double>(bytes) / 1024.0 *
                                  static_cast<double>(cfg_.cpuPerKib));
}

sim::Tick
MiniRedis::logCommand(sim::Tick now)
{
    wal::frameRecordInto(frame_, seq_, cmd_);
    ++seq_;
    now = aof_.append(now, frame_);
    // appendfsync=always; single-threaded, so no group commit.
    now = aof_.commit(now);
    return maybeRewriteAof(now);
}

sim::Tick
MiniRedis::maybeRewriteAof(sim::Tick now)
{
    if (!aof_.needsCheckpoint())
        return now;
    rewrites_.add();
    // BGREWRITEAOF: snapshot the dataset and restart the AOF. The
    // child-process serialisation runs off the command loop; we charge
    // a fork+bookkeeping cost to the loop itself. The snapshot is the
    // live dataset as of now; the ledger journals pre-images from here
    // on so recover() can return to it.
    ledger_.snapshot();
    snapshotSeq_ = seq_;
    aof_.truncate(now);
    return now + sim::usOf(500);
}

sim::Tick
MiniRedis::set(sim::Tick now, const Key &key,
               std::span<const std::uint8_t> value)
{
    commands_.add();
    now = cpu(now, key.key.size() + value.size());
    encode(cmdSet, key.key, value);
    ledger_.put(key, value);
    return logCommand(now);
}

sim::Tick
MiniRedis::del(sim::Tick now, const Key &key)
{
    commands_.add();
    now = cpu(now, key.key.size());
    encode(cmdDel, key.key, {});
    ledger_.erase(key);
    return logCommand(now);
}

sim::Tick
MiniRedis::incr(sim::Tick now, const Key &key, std::int64_t *result)
{
    commands_.add();
    std::int64_t v = 0;
    if (auto it = store_.find(key); it != store_.end()) {
        const Bytes &raw = it->second;
        std::from_chars(reinterpret_cast<const char *>(raw.begin()),
                        reinterpret_cast<const char *>(raw.end()), v);
    }
    ++v;
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    std::span<const std::uint8_t> text(
        reinterpret_cast<const std::uint8_t *>(buf),
        static_cast<std::size_t>(res.ptr - buf));
    if (result)
        *result = v;
    now = cpu(now, key.key.size() + text.size());
    encode(cmdSet, key.key, text);
    ledger_.put(key, text);
    return logCommand(now);
}

sim::Tick
MiniRedis::get(sim::Tick now, const Key &key,
               std::optional<std::vector<std::uint8_t>> *out) const
{
    std::size_t bytes = key.key.size();
    auto it = store_.find(key);
    if (it != store_.end())
        bytes += it->second.size();
    if (out) {
        *out = it == store_.end()
            ? std::optional<std::vector<std::uint8_t>>()
            : std::optional<std::vector<std::uint8_t>>(
                  std::in_place, it->second.begin(), it->second.end());
    }
    return cpu(now, bytes);
}

void
MiniRedis::apply(std::span<const std::uint8_t> payload)
{
    std::size_t pos = 0;
    std::uint8_t cmd = payload[pos++];
    std::uint32_t klen = get32(payload, pos);
    key_.assign(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                payload.begin() + static_cast<std::ptrdiff_t>(pos + klen));
    pos += klen;
    std::uint32_t vlen = get32(payload, pos);
    switch (cmd) {
      case cmdSet:
        ledger_.put(key_, payload.subspan(pos, vlen));
        break;
      case cmdDel:
        ledger_.erase(key_);
        break;
      default:
        sim::panic("miniredis: unknown AOF command ",
                   static_cast<int>(cmd));
    }
}

void
MiniRedis::recover()
{
    // Back to the last rewrite's dataset, then redo the durable AOF.
    ledger_.rollBack();
    seq_ = snapshotSeq_;
    auto recs = wal::parseLogStream(aof_.recoverContents(),
                                    aof_.recoveryChunkBytes(),
                                    static_cast<std::int64_t>(seq_));
    for (const auto &r : recs) {
        apply(r.payload);
        seq_ = r.sequence + 1;
    }
}

} // namespace bssd::db::miniredis
