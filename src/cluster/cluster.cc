#include "cluster/cluster.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "db/bytes.hh"
#include "db/minipg/minipg.hh"
#include "db/miniredis/miniredis.hh"
#include "db/page_allocator.hh"
#include "rigs/rig.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "ssd/nvme_queue.hh"

namespace bssd::cluster
{

namespace
{

/** Host-domain drain-poll cadence during a rebalance. */
constexpr sim::Tick kDrainPoll = sim::usOf(100);

/**
 * Byte @p i of key @p key's deterministic value payload. The serving
 * path fills values with it (fillValue) and verifyConsistency()
 * re-derives it, which is what proves the rebalance copy path moved
 * the actual bytes.
 */
std::uint8_t
valueByte(std::uint64_t key, std::size_t i)
{
    return static_cast<std::uint8_t>(key + i);
}

/** Overwrite @p out with key @p key's @p bytes-byte payload. */
void
fillValue(std::vector<std::uint8_t> &out, std::uint64_t key,
          std::uint32_t bytes)
{
    out.resize(bytes);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = valueByte(key, i);
}

/** Set @p out to the redis key text ("k<id>") of router key @p id;
 *  short texts stay in @p out's inline buffer, so this allocates
 *  nothing. */
void
formatRedisKey(std::string &out, std::uint64_t id)
{
    char buf[24] = {'k'};
    const auto r = std::to_chars(buf + 1, buf + sizeof(buf), id);
    out.assign(buf, r.ptr);
}

/**
 * How many ops ahead of the executing one the shard exec prefetches a
 * redis key's entry; its index slot is prefetched twice as far ahead,
 * so the slot has landed by the time the entry prefetch reads it.
 */
constexpr std::size_t kPrefetchDistance = 8;

/** Staged keys a shard keeps: op j's key is staged 2D ops before it
 *  runs and held until it has run, so 4D slots (a power of two) give
 *  every op in flight its own. */
constexpr std::size_t kKeyRing = 4 * kPrefetchDistance;

/** The router key a formatRedisKey() text names; nullopt for other
 *  text. */
std::optional<std::uint64_t>
routerKeyOf(std::string_view key)
{
    std::uint64_t id = 0;
    const char *end = key.data() + key.size();
    if (key.size() < 2 || key[0] != 'k')
        return std::nullopt;
    const auto [ptr, ec] = std::from_chars(key.data() + 1, end, id);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return id;
}

/** FNV-1a fold helper shared by the digest paths. */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    mix(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

} // namespace

const char *
engineName(ClusterConfig::Engine e)
{
    switch (e) {
      case ClusterConfig::Engine::redis: return "redis";
      case ClusterConfig::Engine::pg: return "pg";
    }
    return "?";
}

const char *
walName(ClusterConfig::Wal w)
{
    switch (w) {
      case ClusterConfig::Wal::ba: return "ba";
      case ClusterConfig::Wal::block: return "block";
      case ClusterConfig::Wal::baRepl: return "ba_repl";
    }
    return "?";
}

/**
 * One shard: a store over a rigs::Rig (device(s) + WAL) living in the
 * rig's domain. The follower domain of a replicated rig is never
 * registered with the engine: the ReplicatedWal models the
 * inter-device link entirely inside the primary's domain, and nothing
 * schedules events on the follower's queue.
 */
struct Cluster::Shard
{
    rigs::Rig rig;
    std::unique_ptr<db::miniredis::MiniRedis> redis;
    std::unique_ptr<db::minipg::MiniPg> pg;
    sim::Tracer tracer;
    /** Shard-local service clock: batches queue behind each other. */
    sim::Tick clock = 0;
    /** SET value scratch, refilled per op (capacity reused). */
    std::vector<std::uint8_t> value;
    /** Redis key text and store hash of the batch's staged ops, op j
     *  in slot j % kKeyRing. */
    std::array<std::string, kKeyRing> keyText;
    std::array<std::uint32_t, kKeyRing> keyHash{};

    std::uint64_t
    contentHash() const
    {
        return redis ? redis->contentHash() : pg->contentHash();
    }
};

namespace
{

/**
 * The rig WAL a shard runs. BA-WALs are single-buffered for Redis,
 * respecting its single-threaded design (Section IV-B); minipg
 * group-commits, so it keeps the double-buffered halves.
 */
rigs::WalKind
shardWal(const ClusterConfig &cfg)
{
    const bool single = cfg.engine == ClusterConfig::Engine::redis;
    switch (cfg.wal) {
      case ClusterConfig::Wal::ba:
        return single ? rigs::WalKind::baSingle : rigs::WalKind::ba;
      case ClusterConfig::Wal::block: return rigs::WalKind::block;
      case ClusterConfig::Wal::baRepl:
        return single ? rigs::WalKind::baReplSingle
                      : rigs::WalKind::baRepl;
    }
    return rigs::WalKind::block;
}

} // namespace

Cluster::Cluster(const ClusterConfig &cfg, sim::Tracer *trace)
    : cfg_(cfg),
      engine_(cfg.engineThreads),
      host_("host"),
      map_(cfg.sharding, cfg.shards == 0 ? 1 : cfg.shards,
           cfg.keySpace),
      trace_(trace)
{
    if (cfg_.shards == 0)
        sim::fatal("Cluster: at least one shard required");
    if (cfg_.rebalanceAtCycle > 0) {
        if (cfg_.moveTo >= cfg_.shards)
            sim::fatal("Cluster: moveTo shard ", cfg_.moveTo, " of ",
                       cfg_.shards);
        if (cfg_.moveBegin256 >= cfg_.moveEnd256 ||
            cfg_.moveEnd256 > 256) {
            sim::fatal("Cluster: bad move interval [",
                       cfg_.moveBegin256, ", ", cfg_.moveEnd256,
                       ")/256");
        }
    }

    host_.adopt(this, sizeof(*this), "cluster");
    engine_.add(host_);
    buildShards(trace);

    host::RouterConfig rc;
    rc.opsPerCycle = cfg_.opsPerCycle;
    rc.cycles = cfg_.cycles;
    rc.arrival = cfg_.arrival;
    rc.setFraction = cfg_.setFraction;
    rc.keySpace = cfg_.keySpace;
    rc.valueBytes = cfg_.valueBytes;
    rc.seed = cfg_.seed;
    rc.queuePairs = cfg_.queuePairs;
    rc.queueDepth = cfg_.queueDepth;
    // The channel contract: requests ride a posted doorbell write,
    // completions an interrupt; the lookaheads are exactly those
    // minimum latencies.
    rc.requestLatency = shards_.front()
                            ->rig.dataDevice()
                            .config()
                            .pcieCfg.minPostedLatency();
    rc.completionLatency = ssd::NvmeQueueConfig{}.completionCost;
    for (sim::Domain *d : shardDoms_) {
        engine_.connect(host_, *d, rc.requestLatency);
        engine_.connect(*d, host_, rc.completionLatency);
    }

    // One route function for the whole run: it reads the live map, so
    // the rebalance flip changes routing without swapping the
    // function. Called only from the host domain.
    router_ = std::make_unique<host::ShardRouter>(
        rc, host_, shardDoms_, makeExec(),
        [this](const host::RouterOp &op) {
            return map_.shardOf(op.key);
        });
    if (cfg_.rebalanceAtCycle > 0) {
        router_->setCycleHook(
            [this](std::uint64_t cycles) { onCycle(cycles); });
    }

    // Host-side tracing (stream 0; shard tracers are streams 1..N).
    // The domain tracer makes context-carrying posts (rebalance hops)
    // land with their request identity in scope.
    hostTracer_.setStream(0);
    if (trace_ != nullptr) {
        host_.setTracer(&hostTracer_);
        router_->setTracer(&hostTracer_);
    } else {
        hostTracer_.setEnabled(false);
    }

    buildSlo();
}

Cluster::~Cluster()
{
    for (auto &sh : shards_)
        sh->rig.domain().release(sh.get());
    host_.release(this);
}

void
Cluster::buildShards(sim::Tracer *trace)
{
    const rigs::WalKind wal = shardWal(cfg_);
    const rigs::RigSpec spec =
        cfg_.gc ? rigs::gcSpec(wal) : rigs::tinySpec(wal);
    shards_.reserve(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->rig = rigs::makeRig(spec, "shard" + std::to_string(s));
        if (cfg_.engine == ClusterConfig::Engine::redis) {
            shard->redis = std::make_unique<db::miniredis::MiniRedis>(
                *shard->rig.log);
        } else {
            shard->pg = std::make_unique<db::minipg::MiniPg>(
                *shard->rig.log);
        }
        sim::Domain &dom = shard->rig.domain();
        if (trace) {
            // Stream s+1 keeps this shard's global span ids disjoint
            // from the host's (stream 0) and every other shard's.
            shard->tracer.setStream(s + 1);
            dom.setTracer(&shard->tracer);
            shard->rig.installTracer(&shard->tracer);
        }
        // The Shard aggregate (store, WAL handle, tracer, service
        // clock) is state of its own domain; the rig components
        // already adopted themselves in their constructors.
        dom.adopt(shard.get(), sizeof(Shard), "cluster.shard");
        engine_.add(dom);
        shardDoms_.push_back(&dom);
        shards_.push_back(std::move(shard));
    }
}

host::ShardRouter::ShardExec
Cluster::makeExec()
{
    return [this](unsigned s, sim::Tick start,
                  const std::vector<host::RouterOp> &ops,
                  std::vector<sim::Tick> &opDone) {
        using db::miniredis::MiniRedis;
        Shard &sh = *shards_[s];
        MiniRedis *const redis = sh.redis.get();
        const std::size_t n = ops.size();
        sim::Tick t = std::max(start, sh.clock);
        opDone.reserve(n);

        // A redis batch is software-pipelined: op j's key is formatted
        // and hashed once, and its index slot prefetched, 2D ops before
        // it runs; its entry is prefetched D ops before. Ops still run
        // one at a time in batch order.
        constexpr std::size_t D = kPrefetchDistance;
        auto key = [&](std::size_t j) {
            j %= kKeyRing;
            return MiniRedis::Key{sh.keyText[j], sh.keyHash[j]};
        };
        auto stage = [&](std::size_t j) {
            std::string &text = sh.keyText[j % kKeyRing];
            formatRedisKey(text, ops[j].key);
            sh.keyHash[j % kKeyRing] = MiniRedis::keyOf(text).hash;
            redis->prefetchSlot(key(j));
        };
        if (redis) {
            for (std::size_t j = 0; j < std::min(2 * D, n); ++j)
                stage(j);
            for (std::size_t j = 0; j < std::min(D, n); ++j)
                redis->prefetchEntry(key(j));
        }

        for (std::size_t i = 0; i < n; ++i) {
            const host::RouterOp &op = ops[i];
            if (redis) {
                if (i + 2 * D < n)
                    stage(i + 2 * D);
                if (i + D < n)
                    redis->prefetchEntry(key(i + D));
            }
            // Scope the op's request identity around its execution:
            // the exec span adopts the trace and cross-links to the
            // op's (future) root span in the host tracer, and every
            // WAL/device span below nests under it.
            sim::SpanId execSpan = 0;
            if (op.trace != 0) {
                sh.tracer.pushContext(
                    sim::TraceContext{op.trace, op.gid});
                execSpan = sh.tracer.beginSpan("shard", "exec", t);
            }
            if (redis) {
                if (op.kind == host::RouterOp::Kind::set) {
                    fillValue(sh.value, op.key, op.valueBytes);
                    t = redis->set(t, key(i), sh.value);
                } else {
                    t = redis->get(t, key(i));
                }
            } else {
                // addNode upserts (XLOG replay assigns), so SET maps
                // onto it for both fresh and existing ids.
                if (op.kind == host::RouterOp::Kind::set) {
                    fillValue(sh.value, op.key, op.valueBytes);
                    t = sh.pg->addNode(t, op.key, sh.value);
                } else {
                    t = sh.pg->getNode(t, op.key);
                }
            }
            if (op.trace != 0) {
                sh.tracer.endSpan(execSpan, t);
                sh.tracer.popContext();
            }
            opDone.push_back(t);
        }
        sh.clock = t;
        return t;
    };
}

void
Cluster::run()
{
    if (ran_)
        sim::panic("Cluster::run() called twice");
    ran_ = true;
    router_->start();

    // Advance the horizon in fixed strides until the router drains
    // and the rebalance (if any) has flipped. Queue states are
    // identical at every thread count, so the resulting sequence of
    // run() horizons — and the final horizon_ — is too. When a stride
    // lands between distant arrivals the loop jumps straight to the
    // next pending event instead of crawling there, so a saturated
    // fleet that needs many simulated seconds to drain its backlog
    // still terminates (progress-based, not a fixed try count).
    const bool wantRebal = cfg_.rebalanceAtCycle > 0;
    const sim::Tick chunk = sim::msOf(5);
    auto finished = [&] {
        return router_->done() &&
               (!wantRebal || rebal_ == Rebal::done);
    };
    auto nextEvent = [&] {
        sim::Tick next = host_.queue().nextEventTime();
        for (auto &sh : shards_) {
            next = std::min(next,
                            sh->rig.domain().queue().nextEventTime());
        }
        return next;
    };
    while (!finished()) {
        const sim::Tick next = nextEvent();
        horizon_ = std::max(horizon_ + chunk, next == sim::maxTick
                                                  ? sim::Tick(0)
                                                  : next);
        if (engine_.run(horizon_) == 0 && next == sim::maxTick) {
            // Nothing fired, nothing pending, and no cross-domain
            // message can still be in flight (posts land within one
            // channel lookahead ≪ chunk of their send): the fleet is
            // deadlocked with work outstanding.
            sim::panic("Cluster: deadlocked before draining "
                       "(rebalance at cycle ", cfg_.rebalanceAtCycle,
                       " of ", cfg_.cycles, ")");
        }
        // The engine is quiescent between runs, so the gauges read a
        // consistent fleet state at the shared horizon tick — every
        // sampler rows at the same ticks and the merged series joins.
        sampleSlo(horizon_);
    }

    slo_.merge(*hostSloSampler_);
    for (const auto &s : sloSamplers_)
        slo_.merge(*s);

    if (trace_) {
        // Host first (stream 0), then shards in domain-id order: a
        // fixed merge order, so the trace is a pure function of the
        // run at any thread count.
        trace_->append(hostTracer_);
        for (const auto &sh : shards_)
            trace_->append(sh->tracer);
    }
}

void
Cluster::sampleSlo(sim::Tick now)
{
    hostSloSampler_->sample(now);
    for (const auto &s : sloSamplers_)
        s->sample(now);
}

void
Cluster::buildSlo()
{
    const sim::Tick period = sim::msOf(1);
    hostSloReg_ = std::make_unique<sim::MetricRegistry>();
    hostSloReg_->addGauge("slo.cluster.held_ops", [this] {
        return static_cast<double>(router_->heldOps());
    });
    hostSloReg_->addGauge("slo.cluster.hold_ticks", [this] {
        const bool holding = rebal_ == Rebal::draining ||
                             rebal_ == Rebal::copying;
        return holding
                   ? static_cast<double>(host_.now() - rebalStart_)
                   : 0.0;
    });
    hostSloReg_->addGauge("slo.cluster.queue_depth", [this] {
        std::uint64_t q = 0;
        for (unsigned s = 0; s < cfg_.shards; ++s)
            q += router_->outstanding(s);
        return static_cast<double>(q);
    });
    hostSloSampler_ =
        std::make_unique<sim::GaugeSampler>(*hostSloReg_, period);

    for (unsigned s = 0; s < cfg_.shards; ++s) {
        auto reg = std::make_unique<sim::MetricRegistry>();
        const std::string p = "slo.shard" + std::to_string(s);
        Shard *sh = shards_[s].get();
        reg->addGauge(p + ".queue_depth", [this, s] {
            return static_cast<double>(router_->outstanding(s));
        });
        reg->addGauge(p + ".wal_bytes", [sh] {
            return static_cast<double>(sh->rig.log->bytesToStore());
        });
        reg->addGauge(p + ".gc_debt", [sh] {
            // Blocks short of the GC high watermark: >0 means the
            // shard is burning margin and relocations are (or will
            // be) stealing bandwidth from foreground ops.
            const ssd::SsdDevice &dev = sh->rig.dataDevice();
            const auto &fc = dev.config().ftlCfg;
            const std::uint32_t free = dev.ftl().freeBlocks();
            return free >= fc.gcHighWaterBlocks
                       ? 0.0
                       : static_cast<double>(fc.gcHighWaterBlocks -
                                             free);
        });
        reg->addGauge(p + ".p99_ticks", [this, s] {
            return static_cast<double>(router_->windowP99(s));
        });
        // Only the rebalance TARGET registers this gauge — the merged
        // snapshot/series must keep such one-sided columns (the
        // union-merge regression the tests pin down).
        if (cfg_.rebalanceAtCycle > 0 && s == cfg_.moveTo) {
            reg->addGauge(p + ".inbound_keys", [this] {
                return static_cast<double>(movedKeys_);
            });
        }
        sloSamplers_.push_back(
            std::make_unique<sim::GaugeSampler>(*reg, period));
        sloRegs_.push_back(std::move(reg));
    }
}

// --- Rebalance state machine. Every step runs in the host domain or
// --- hops to a shard through the same posted request/completion
// --- channels as normal traffic, so the whole sequence is ordered by
// --- the engine's deterministic message delivery. ------------------

void
Cluster::onCycle(std::uint64_t cyclesDone)
{
    BSSD_OWN_GUARD(this);
    if (rebal_ == Rebal::idle && cyclesDone >= cfg_.rebalanceAtCycle)
        startRebalance();
}

void
Cluster::startRebalance()
{
    BSSD_OWN_GUARD(this);
    // n/256ths of the routing space, exact for n == 256 and without
    // overflowing u64 even for the hash map's 2^63 space.
    auto scaled = [this](std::uint32_t n) {
        const std::uint64_t space = map_.space();
        return (space / 256) * n + (space % 256) * n / 256;
    };
    const std::uint64_t begin = scaled(cfg_.moveBegin256);
    const std::uint64_t end = scaled(cfg_.moveEnd256);
    if (begin == end) {
        sim::fatal("Cluster: move interval [", cfg_.moveBegin256,
                   ", ", cfg_.moveEnd256, ")/256 rounds to nothing in "
                   "a routing space of ", map_.space());
    }
    plan_ = map_.planMove(begin, end, cfg_.moveTo);
    if (plan_.empty()) {
        // The interval is already owned by the target: nothing to
        // drain or copy, and the map needs no flip.
        rebal_ = Rebal::done;
        ++rebalances_;
        return;
    }
    rebal_ = Rebal::draining;
    rebalStart_ = host_.now();
    if (hostTracer_.enabled()) {
        // The rebalance borrows a trace id from the router's mint so
        // it can never collide with an op's, and pre-mints the gid of
        // its root span so every hop's spans cross-link to it.
        rebalTrace_ = router_->mintTraceId();
        rebalGid_ = hostTracer_.mintGid();
    }
    // Park every operation whose routing point is mid-move; they
    // re-route and dispatch after the flip.
    router_->setHold([this, begin, end](const host::RouterOp &op) {
        const std::uint64_t p = map_.point(op.key);
        return p >= begin && p < end;
    });
    // bssd-lint: allow(det-cross-domain-schedule) poll runs in host_
    host_.queue().schedule(host_.now() + kDrainPoll,
                           [this] { pollDrain(); });
}

void
Cluster::pollDrain()
{
    BSSD_OWN_GUARD(this);
    bool busy = false;
    for (const MoveRange &m : plan_)
        busy = busy || router_->outstanding(m.from) > 0;
    if (busy) {
        // bssd-lint: allow(det-cross-domain-schedule) poll runs in host_
        host_.queue().schedule(host_.now() + kDrainPoll,
                               [this] { pollDrain(); });
        return;
    }
    rebal_ = Rebal::copying;
    drainEnd_ = host_.now();
    runStep(0);
}

void
Cluster::runStep(std::size_t step)
{
    BSSD_OWN_GUARD(this);
    if (step == plan_.size()) {
        finishRebalance();
        return;
    }
    const MoveRange mr = plan_[step];
    const sim::Tick toVictim =
        engine_.lookahead(host_.id(), shardDoms_[mr.from]->id());

    // Hop 1: read the moving keys out of the victim, in its domain,
    // in the store's key order. The moving keys cannot change under
    // us: their operations are parked at the router and the victim's
    // in-flight batches drained before this step. (The
    // map is read-only until the flip, so consulting it from the
    // shard domain here is a benign concurrent read.)
    // Every hop carries the rebalance's trace context, so the spans
    // the copy records inside the shard domains (store reads, WAL
    // commits, device work) stitch under the "cluster"/"rebalance"
    // root finishRebalance() emits.
    host_.post(*shardDoms_[mr.from], host_.now() + toVictim,
               rebalCtx(), [this, step, mr] {
        Shard &sh = *shards_[mr.from];
        sim::Domain &dom = sh.rig.domain();
        sim::Tick t = std::max(sh.clock, dom.now());
        using Moved = std::pair<std::uint64_t, db::Bytes>;
        auto moved = std::make_shared<
            std::vector<Moved, db::PageAllocator<Moved>>>();
        auto moving = [&](std::uint64_t id) {
            const std::uint64_t p = map_.point(id);
            return p >= mr.begin && p < mr.end;
        };
        // The stores walk in hash order; the moving subset is sorted
        // by store key before any op is issued, so the copy replays
        // in the same (key-text / id) order at any thread count.
        if (sh.redis) {
            std::vector<std::pair<const std::string *,
                                  std::span<const std::uint8_t>>>
                hits;
            sh.redis->forEachUnordered(
                [&](const std::string &key,
                    std::span<const std::uint8_t> value) {
                    const auto id = routerKeyOf(key);
                    if (id && moving(*id))
                        hits.emplace_back(&key, value);
                });
            std::sort(hits.begin(), hits.end(),
                      [](const auto &a, const auto &b) {
                          return *a.first < *b.first;
                      });
            moved->reserve(hits.size());
            for (const auto &[key, value] : hits)
                moved->emplace_back(*routerKeyOf(*key), value);
            std::string key;
            for (const auto &kv : *moved) {
                formatRedisKey(key, kv.first);
                t = sh.redis->get(t, key);
            }
        } else {
            sh.pg->forEachNodeUnordered(
                [&](std::uint64_t id,
                    std::span<const std::uint8_t> payload) {
                    if (moving(id))
                        moved->emplace_back(id, payload);
                });
            std::sort(moved->begin(), moved->end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (const auto &kv : *moved)
                t = sh.pg->getNode(t, kv.first);
        }
        sh.clock = t;
        const sim::Tick back =
            engine_.lookahead(dom.id(), host_.id());

        // Hop 2: back to the host with the data, then durably into
        // the target shard.
        dom.post(host_, t + back, rebalCtx(),
                 [this, step, mr, moved] {
            movedKeys_ += moved->size();
            const sim::Tick toTarget = engine_.lookahead(
                host_.id(), shardDoms_[mr.to]->id());
            host_.post(*shardDoms_[mr.to], host_.now() + toTarget,
                       rebalCtx(), [this, step, mr, moved] {
                Shard &dst = *shards_[mr.to];
                sim::Domain &ddom = dst.rig.domain();
                sim::Tick t = std::max(dst.clock, ddom.now());
                std::string key;
                for (const auto &[id, value] : *moved) {
                    if (dst.redis) {
                        formatRedisKey(key, id);
                        t = dst.redis->set(t, key, value.span());
                    } else {
                        t = dst.pg->addNode(t, id, value.span());
                    }
                }
                dst.clock = t;
                const sim::Tick back2 =
                    engine_.lookahead(ddom.id(), host_.id());

                // Hop 3: back to the host, then durably purge the
                // victim's copies of the moved keys.
                ddom.post(host_, t + back2, rebalCtx(),
                          [this, step, mr, moved] {
                    const sim::Tick toVic = engine_.lookahead(
                        host_.id(), shardDoms_[mr.from]->id());
                    host_.post(*shardDoms_[mr.from],
                               host_.now() + toVic, rebalCtx(),
                               [this, step, mr, moved] {
                        Shard &vic = *shards_[mr.from];
                        sim::Domain &vdom = vic.rig.domain();
                        sim::Tick t =
                            std::max(vic.clock, vdom.now());
                        std::string key;
                        for (const auto &kv : *moved) {
                            if (vic.redis) {
                                formatRedisKey(key, kv.first);
                                t = vic.redis->del(t, key);
                            } else {
                                t = vic.pg->deleteNode(t, kv.first);
                            }
                        }
                        vic.clock = t;
                        const sim::Tick back3 = engine_.lookahead(
                            vdom.id(), host_.id());
                        vdom.post(host_, t + back3, rebalCtx(),
                                  [this, step] {
                            runStep(step + 1);
                        });
                    });
                });
            });
        });
    });
}

void
Cluster::finishRebalance()
{
    BSSD_OWN_GUARD(this);
    // The tick barrier: one host-domain event flips the map, drops
    // the hold, and re-routes every parked operation through the new
    // owners. No operation can observe a half-applied map.
    map_.apply(plan_);
    router_->setHold(nullptr);
    router_->releaseHeld();
    rebal_ = Rebal::done;
    ++rebalances_;
    if (rebalTrace_ != 0) {
        // The rebalance's own span tree: a root over the whole move
        // (under the gid every hop already cross-linked to) split
        // into its drain and copy phases.
        const sim::Tick now = host_.now();
        hostTracer_.recordSpan("cluster", "rebalance", rebalStart_,
                               now,
                               sim::TraceContext{rebalTrace_, 0},
                               rebalGid_);
        hostTracer_.recordSpan("cluster", "drain", rebalStart_,
                               drainEnd_,
                               sim::TraceContext{rebalTrace_,
                                                 rebalGid_});
        hostTracer_.recordSpan("cluster", "copy", drainEnd_, now,
                               sim::TraceContext{rebalTrace_,
                                                 rebalGid_});
    }
}

std::uint64_t
Cluster::stateDigest() const
{
    Fnv f;
    for (const auto &sh : shards_) {
        f.mix(sh->contentHash());
        if (sh->redis) {
            f.mix(sh->redis->commandsProcessed());
            f.mix(sh->redis->keys());
        } else {
            f.mix(sh->pg->committedTxns());
            f.mix(sh->pg->nodeCount());
            f.mix(sh->pg->linkCount());
        }
        f.mix(sh->rig.dataDevice().readsServed());
        f.mix(sh->rig.dataDevice().writesServed());
        if (const auto &follower = sh->rig.followerTwoB) {
            f.mix(follower->device().readsServed());
            f.mix(follower->device().writesServed());
        }
    }
    f.mix(map_.version());
    f.mix(movedKeys_);
    return f.h;
}

sim::MetricsSnapshot
Cluster::metricsSnapshot() const
{
    sim::MetricRegistry reg;
    engine_.registerMetrics(reg, "engine");
    for (unsigned s = 0; s < cfg_.shards; ++s)
        shards_[s]->rig.registerMetrics(reg, "shard" + std::to_string(s));
    sim::MetricsSnapshot snap = reg.snapshot();
    // The SLO gauges live in per-shard registries (each with its own
    // sampler); merge() is a path union, which is what carries gauges
    // only one shard registers (e.g. the move target's inbound_keys)
    // into the combined snapshot.
    snap.merge(hostSloReg_->snapshot());
    for (const auto &r : sloRegs_)
        snap.merge(r->snapshot());
    return snap;
}

std::string
Cluster::metricsJson() const
{
    std::ostringstream out;
    metricsSnapshot().writeJson(out);
    return out.str();
}

std::string
Cluster::sloJson() const
{
    std::ostringstream out;
    slo_.writeJson(out);
    return out.str();
}

std::uint64_t
Cluster::shardContentHash(unsigned shard) const
{
    return shards_.at(shard)->contentHash();
}

std::uint64_t
Cluster::shardItems(unsigned shard) const
{
    const Shard &sh = *shards_.at(shard);
    return sh.redis ? sh.redis->keys() : sh.pg->nodeCount();
}

void
Cluster::verifyConsistency() const
{
    // One unordered walk per store, so the walk may only select: it
    // keeps the smallest offending (key id, shard, key text) and the
    // panic names that one, whatever order the hash maps visit in.
    struct Offense
    {
        std::uint64_t id = 0;
        unsigned shard = 0;
        std::string key; ///< redis key text (tie-break); "" for pg
        std::string what;
    };
    std::optional<Offense> worst;
    auto offend = [&](std::uint64_t id, unsigned s, std::string_view key,
                      auto &&what) {
        if (worst && std::tuple(worst->id, worst->shard,
                                std::string_view(worst->key)) <=
                         std::tuple(id, s, key))
            return;
        worst = Offense{id, s, std::string(key), what()};
    };
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        const Shard &sh = *shards_[s];
        auto check = [&](std::uint64_t id, std::string_view key,
                         std::span<const std::uint8_t> value) {
            if (id >= map_.keySpace()) {
                offend(id, s, key, [&] {
                    return "key " + std::to_string(id) + " on shard " +
                           std::to_string(s) +
                           " lies outside the key space " +
                           std::to_string(map_.keySpace());
                });
                return;
            }
            const unsigned owner = map_.shardOf(id);
            if (owner != s) {
                offend(id, s, key, [&] {
                    return "key " + std::to_string(id) +
                           " stored on shard " + std::to_string(s) +
                           " but the map (" + map_.describe() +
                           ") owns it to shard " + std::to_string(owner);
                });
                return;
            }
            for (std::size_t i = 0; i < value.size(); ++i) {
                if (value[i] != valueByte(id, i)) {
                    offend(id, s, key, [&] {
                        return "key " + std::to_string(id) +
                               " on shard " + std::to_string(s) +
                               " has corrupt payload byte " +
                               std::to_string(i);
                    });
                    return;
                }
            }
        };
        if (sh.redis) {
            sh.redis->forEachUnordered(
                [&](const std::string &key,
                    std::span<const std::uint8_t> value) {
                    if (const auto id = routerKeyOf(key)) {
                        check(*id, key, value);
                        return;
                    }
                    offend(~std::uint64_t(0), s, key, [&] {
                        return "key '" + key + "' on shard " +
                               std::to_string(s) +
                               " is not a router key";
                    });
                });
        } else {
            sh.pg->forEachNodeUnordered(
                [&](std::uint64_t id,
                    std::span<const std::uint8_t> payload) {
                    check(id, {}, payload);
                });
        }
    }
    if (worst)
        sim::panic("cluster consistency: ", worst->what);
}

void
Cluster::plantEntry(unsigned shard, std::uint64_t key,
                    std::span<const std::uint8_t> value)
{
    Shard &sh = *shards_.at(shard);
    const sim::Tick t = std::max(sh.clock, sh.rig.domain().now());
    std::string text;
    formatRedisKey(text, key);
    sh.clock = sh.redis ? sh.redis->set(t, text, value)
                        : sh.pg->addNode(t, key, value);
}

bool
Cluster::crashAndRecoverShard(unsigned shard)
{
    Shard &sh = *shards_.at(shard);
    wal::ReplicatedWal *repl = sh.rig.repl();
    if (!repl) {
        sim::panic("crashAndRecoverShard: shard ", shard,
                   " has no replicated WAL (wal=", walName(cfg_.wal),
                   ")");
    }
    const std::uint64_t before = sh.contentHash();
    // Power-cut the primary; the decorator loses its in-flight state
    // and promotes the follower as the recovery source. The cut time
    // must not precede the domain clock (the engine advanced it to
    // the run horizon), or the capacitor-dump events the power loss
    // schedules would land in the past.
    repl->crash(std::max(sh.clock, sh.rig.domain().now()));
    if (sh.redis)
        sh.redis->recover();
    else
        sh.pg->recover();
    return sh.contentHash() == before && repl->promoted();
}

} // namespace bssd::cluster
