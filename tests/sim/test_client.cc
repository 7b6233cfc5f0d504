/**
 * @file
 * Unit tests for the closed-loop client driver.
 */

#include <gtest/gtest.h>

#include "sim/client.hh"
#include "sim/logging.hh"
#include "sim/resource.hh"

using namespace bssd::sim;

TEST(Clock, AdvancesMonotonically)
{
    Clock c;
    c.advance(10);
    c.advanceTo(5); // ignored: already past 5
    EXPECT_EQ(c.now(), 10u);
    c.advanceTo(20);
    EXPECT_EQ(c.now(), 20u);
}

TEST(ClosedLoopDriver, SingleClientThroughput)
{
    ClosedLoopDriver d;
    d.addClient([](Clock &c) { c.advance(usOf(10)); });
    auto ops = d.run(msOf(1));
    EXPECT_EQ(ops, 100u);
    EXPECT_NEAR(d.throughputOpsPerSec(), 100000.0, 1.0);
}

TEST(ClosedLoopDriver, ClientsShareAResourceFairly)
{
    // Two clients contending on one FIFO resource: combined throughput
    // equals the resource service rate, not double it.
    FifoResource dev("dev");
    ClosedLoopDriver d;
    for (int i = 0; i < 2; ++i) {
        d.addClient([&dev](Clock &c) {
            auto iv = dev.reserve(c.now(), usOf(10));
            c.advanceTo(iv.end);
        });
    }
    auto ops = d.run(msOf(1));
    EXPECT_EQ(ops, 100u);
}

TEST(ClosedLoopDriver, IndependentClientsScale)
{
    ClosedLoopDriver d;
    for (int i = 0; i < 4; ++i)
        d.addClient([](Clock &c) { c.advance(usOf(10)); });
    auto ops = d.run(msOf(1));
    EXPECT_EQ(ops, 400u);
}

TEST(ClosedLoopDriver, LatencyDistributionRecorded)
{
    ClosedLoopDriver d;
    d.addClient([](Clock &c) { c.advance(usOf(5)); });
    d.run(msOf(1));
    EXPECT_EQ(d.latency().min(), usOf(5));
    EXPECT_EQ(d.latency().max(), usOf(5));
}

TEST(ClosedLoopDriver, RerunReportsOnlyItsOwnLatencies)
{
    // Each op's latency is a function of the client clock, which every
    // run() rewinds, so a reused driver must report exactly what a
    // fresh one does: the earlier, longer run leaves nothing behind.
    auto op = [](Clock &c) {
        c.advance(usOf(1 + (c.now() / usOf(7)) % 13));
    };
    ClosedLoopDriver reused, fresh;
    reused.addClient(op);
    fresh.addClient(op);
    reused.run(msOf(3));
    const std::uint64_t ops = reused.run(msOf(1));
    EXPECT_EQ(fresh.run(msOf(1)), ops);
    EXPECT_EQ(reused.latency().count(), ops);
    EXPECT_EQ(reused.latency().sum(), fresh.latency().sum());
    EXPECT_EQ(reused.latency().max(), fresh.latency().max());
    for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0}) {
        EXPECT_EQ(reused.latency().percentile(p),
                  fresh.latency().percentile(p))
            << "p=" << p;
    }
}

TEST(ClosedLoopDriver, StuckClientPanics)
{
    ClosedLoopDriver d;
    d.addClient([](Clock &) { /* forgets to advance */ });
    EXPECT_THROW(d.run(1000), SimPanic);
}

TEST(ClosedLoopDriver, NoClientsIsFatal)
{
    ClosedLoopDriver d;
    EXPECT_THROW(d.run(1000), SimFatal);
}

TEST(OpenLoopArrivals, PoissonArrivalsStrictlyIncrease)
{
    OpenLoopArrivals a(usOf(400), 7);
    Tick prev = 0;
    for (int i = 0; i < 2000; ++i) {
        Tick t = a.next();
        EXPECT_GT(t, prev);
        prev = t;
    }
    EXPECT_EQ(a.generated(), 2000u);
}

TEST(OpenLoopArrivals, SameSeedSameSchedule)
{
    OpenLoopArrivals a(usOf(50), 3);
    OpenLoopArrivals b(usOf(50), 3);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(OpenLoopArrivals, BurstyArrivalsClusterAndIncrease)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::bursty;
    spec.meanGap = msOf(1);
    spec.burstSize = 8;
    spec.burstGap = nsOf(100);
    OpenLoopArrivals a(spec, 11);

    Tick prev = 0;
    std::uint64_t tightGaps = 0;
    const int n = 800;
    for (int i = 0; i < n; ++i) {
        Tick t = a.next();
        ASSERT_GT(t, prev);
        if (i > 0 && t - prev <= spec.burstGap + 1)
            ++tightGaps;
        prev = t;
    }
    // 7 of every 8 consecutive gaps are intra-burst (burstGap-sized).
    EXPECT_NEAR(static_cast<double>(tightGaps) / (n - 1), 7.0 / 8.0,
                0.05);
}

/**
 * Regression: a huge mean gap must saturate, not wrap. An exponential
 * draw can exceed 30x the mean, so meanGap near maxTick/2 overflows
 * the double→Tick conversion; before the saturating fix the stream
 * went backwards in time (undefined behavior in the cast, wrapped
 * arrivals in practice), which broke open-loop monotonicity.
 */
TEST(OpenLoopArrivals, HugeMeanGapStaysMonotonic)
{
    for (ArrivalSpec::Kind kind :
         {ArrivalSpec::Kind::poisson, ArrivalSpec::Kind::bursty}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.meanGap = maxTick / 2;
        spec.burstSize = 4;
        spec.burstGap = maxTick / 4;
        OpenLoopArrivals a(spec, 1234);
        Tick prev = 0;
        bool saturated = false;
        for (int i = 0; i < 1000; ++i) {
            Tick t = a.next();
            ASSERT_GE(t, prev) << "arrival stream wrapped at draw " << i;
            if (t == maxTick)
                saturated = true;
            ASSERT_TRUE(t > prev || saturated);
            prev = t;
        }
        EXPECT_TRUE(saturated)
            << "a maxTick/2 mean never saturating is implausible";
    }
}

TEST(ClosedLoopDriver, MinClockSchedulingInterleaves)
{
    // A fast client (1 us/op) and a slow one (10 us/op) on a shared
    // FIFO resource: the fast client must get ~10x the grants.
    FifoResource cpu("cpu");
    std::uint64_t fast_ops = 0, slow_ops = 0;
    ClosedLoopDriver d;
    d.addClient([&](Clock &c) {
        c.advance(usOf(1));
        ++fast_ops;
    });
    d.addClient([&](Clock &c) {
        c.advance(usOf(10));
        ++slow_ops;
    });
    d.run(msOf(1));
    EXPECT_NEAR(static_cast<double>(fast_ops) /
                static_cast<double>(slow_ops), 10.0, 1.0);
}
