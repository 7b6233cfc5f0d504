/**
 * @file
 * Closed-loop client scheduling.
 *
 * Application-level experiments (Figs. 9 and 10) run N logical client
 * threads, each owning a virtual Clock. The driver always steps the
 * client whose clock is smallest, so operations interleave in global
 * time order and contention on shared FIFO resources resolves the same
 * way it would under a full event-driven host model.
 */

#ifndef BSSD_SIM_CLIENT_HH
#define BSSD_SIM_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace bssd::sim
{

/** A logical thread's virtual clock, threaded through call chains. */
class Clock
{
  public:
    Tick now() const { return now_; }

    /** Move forward by @p d ticks (CPU work, blocking waits, ...). */
    void advance(Tick d) { now_ += d; }

    /** Jump to an absolute time; ignores moves into the past. */
    void
    advanceTo(Tick t)
    {
        if (t > now_)
            now_ = t;
    }

    /** Rewind to time zero for a fresh run. */
    void reset() { now_ = 0; }

  private:
    Tick now_ = 0;
};

/**
 * Shape of an open-loop arrival process.
 *
 * Poisson is the memoryless baseline every queueing model starts
 * from; bursty is the heavy-tailed reality of fleet traffic (many
 * users waking at once behind a cache-miss storm or a timer tick):
 * burst *starts* arrive as a Poisson process with @ref meanGap, and
 * each burst then emits @ref burstSize arrivals @ref burstGap apart.
 * With burstSize == 1 the two kinds coincide.
 */
struct ArrivalSpec
{
    enum class Kind : std::uint8_t
    {
        poisson, ///< independent exponential gaps
        bursty   ///< Poisson burst starts, clustered arrivals inside
    };

    Kind kind = Kind::poisson;
    /** Mean gap between arrivals (poisson) or burst starts (bursty). */
    Tick meanGap = usOf(400);
    /** Arrivals per burst (bursty only; >= 1). */
    std::uint32_t burstSize = 8;
    /** Gap between arrivals inside one burst (bursty only; arrivals
     *  still advance by at least one tick each). */
    Tick burstGap = 0;
};

/**
 * Deterministic open-loop arrival process (Poisson or bursty).
 *
 * Closed-loop clients issue the next operation when the previous one
 * completes; an open-loop source issues on its own schedule regardless
 * of service times, which is what drives the event-queue side of a rig
 * (and the parallel engine's host domain). Arrival times depend only
 * on (spec, seed), never on service progress, so the generated
 * schedule is bit-identical across runs and thread counts.
 *
 * Monotonicity contract: next() strictly increases and saturates at
 * maxTick instead of wrapping — exponential draws can exceed 30x the
 * mean, so a huge meanGap must clamp rather than overflow the
 * double→Tick conversion (regression-tested in test_client.cc).
 */
class OpenLoopArrivals
{
  public:
    /**
     * Poisson process (the historical constructor).
     * @param meanGap mean inter-arrival gap in ticks (> 0)
     * @param seed    RNG stream seed
     */
    OpenLoopArrivals(Tick meanGap, std::uint64_t seed);

    /** Any ArrivalSpec shape. @pre spec.meanGap > 0, burstSize >= 1. */
    OpenLoopArrivals(const ArrivalSpec &spec, std::uint64_t seed);

    /** Absolute time of the next arrival (strictly increasing). */
    Tick next();

    /** Arrivals generated so far. */
    std::uint64_t generated() const { return generated_; }

  private:
    ArrivalSpec spec_;
    Rng rng_;
    Tick at_ = 0;
    /** Start time of the current burst (bursty kind). */
    Tick burstStart_ = 0;
    /** Arrivals already emitted from the current burst. */
    std::uint32_t inBurst_ = 0;
    std::uint64_t generated_ = 0;

    Tick expGap();
};

/**
 * Runs N closed-loop clients to a simulated-time horizon.
 *
 * Each client is a callable performing exactly one operation per
 * invocation, advancing the Clock it is handed by that operation's
 * latency.
 */
class ClosedLoopDriver
{
  public:
    /** One operation; advances the clock by the operation's latency. */
    using ClientFn = std::function<void(Clock &)>;

    /** Register a client. Returns its index. */
    std::size_t addClient(ClientFn fn);

    /**
     * Start every client clock at @p t (e.g., after a load phase has
     * advanced the device calendars) instead of zero.
     */
    void setStartTime(Tick t) { startAt_ = t; }

    /**
     * Run all clients until every clock passes @p horizon.
     *
     * @param horizon  end of measurement window (ticks, absolute)
     * @return number of whole operations completed within the horizon
     */
    std::uint64_t run(Tick horizon);

    /** Completed operations per simulated second over the last run(). */
    double throughputOpsPerSec() const;

    /** Per-operation latency histogram over the last run(). */
    const Histogram &latency() const { return latency_; }

    /** Number of registered clients. */
    std::size_t clients() const { return clients_.size(); }

  private:
    struct Client
    {
        ClientFn fn;
        Clock clock;
    };

    std::vector<Client> clients_;
    Histogram latency_{"op-latency-ns"};
    std::uint64_t completedOps_ = 0;
    Tick startAt_ = 0;
    Tick lastHorizon_ = 0;
};

} // namespace bssd::sim

#endif // BSSD_SIM_CLIENT_HH
