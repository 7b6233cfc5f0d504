/**
 * @file
 * The ONE wall-clock site of the tree (DESIGN.md section 11).
 *
 * Simulated results must never depend on the host clock, so bssd-lint
 * (det-wallclock) bans <chrono> and friends everywhere except this
 * shim. Benchmarks use a Stopwatch to measure how long the simulator
 * itself takes (events/sec, wall ms per cell); nothing read from it
 * may feed back into simulated state.
 */

#ifndef BSSD_BENCH_SUPPORT_STOPWATCH_HH
#define BSSD_BENCH_SUPPORT_STOPWATCH_HH

#include <chrono>
#include <cstdint>

namespace bssd::bench
{

/** Monotonic wall-clock stopwatch; starts running on construction. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    /** Restart the epoch. */
    void restart() { start_ = std::chrono::steady_clock::now(); }

    /** Wall milliseconds since construction / last restart(). */
    double
    ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /** Wall seconds since construction / last restart(). */
    double sec() const { return ms() / 1e3; }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Monotonic wall clock in ns (sim::ParallelEngine::WallClock). */
inline std::uint64_t
wallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace bssd::bench

#endif // BSSD_BENCH_SUPPORT_STOPWATCH_HH
