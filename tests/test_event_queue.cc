/**
 * @file
 * Unit tests for the discrete-event kernel (sim/event_queue.h,
 * sim/simulation.h, sim/time.h) and the component callback mechanism
 * (sim/callback.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace apc::sim {
namespace {

/** Horizon of the churn tests: 2^31 ps, about 2.1 ms. */
constexpr Tick kChurnSpan = Tick(1) << 31;

TEST(Time, UnitConstants)
{
    EXPECT_EQ(kNs, 1000);
    EXPECT_EQ(kUs, 1000 * kNs);
    EXPECT_EQ(kMs, 1000 * kUs);
    EXPECT_EQ(kSec, 1000 * kMs);
}

TEST(Time, Conversions)
{
    EXPECT_DOUBLE_EQ(toSeconds(kSec), 1.0);
    EXPECT_DOUBLE_EQ(toMicros(kUs), 1.0);
    EXPECT_DOUBLE_EQ(toNanos(150 * kNs), 150.0);
    EXPECT_EQ(fromSeconds(2.5), 2 * kSec + 500 * kMs);
    EXPECT_EQ(fromMicros(0.5), 500 * kNs);
    EXPECT_EQ(fromNanos(64.0), 64 * kNs);
}

TEST(Time, NegativeDeltasRoundToNearest)
{
    // The old `+ 0.5`-then-truncate rounded negatives toward zero:
    // fromNanos(-0.6) evaluated to -599 ps and fromSeconds(-1e-12) to
    // 0. llround rounds to nearest with halves away from zero.
    EXPECT_EQ(fromNanos(-0.6), -600);
    EXPECT_EQ(fromNanos(-1.0), -1 * kNs);
    EXPECT_EQ(fromMicros(-0.5), -500 * kNs);
    EXPECT_EQ(fromSeconds(-2.5), -(2 * kSec + 500 * kMs));
    EXPECT_EQ(fromSeconds(-1e-12), -1); // -1 ps must not collapse to 0
}

TEST(Time, RoundingBoundaries)
{
    // Halves round away from zero (llround semantics).
    EXPECT_EQ(fromNanos(0.0005), 1);
    EXPECT_EQ(fromNanos(-0.0005), -1);
    EXPECT_EQ(fromNanos(0.0004), 0);
    EXPECT_EQ(fromNanos(-0.0004), 0);
    EXPECT_EQ(fromNanos(2.4999), 2500); // nearest, not floor
    EXPECT_EQ(fromMicros(-1.25), -1250 * kNs);
}

TEST(Time, ClockPeriod500MHz)
{
    // The APMU clock from the paper: 500 MHz -> 2 ns period.
    EXPECT_EQ(clockPeriod(500e6), 2 * kNs);
    EXPECT_EQ(clockPeriod(1e9), 1 * kNs);
}

TEST(Time, CeilToPeriod)
{
    EXPECT_EQ(ceilToPeriod(0, 2 * kNs), 0);
    EXPECT_EQ(ceilToPeriod(1, 2 * kNs), 2 * kNs);
    EXPECT_EQ(ceilToPeriod(2 * kNs, 2 * kNs), 2 * kNs);
    EXPECT_EQ(ceilToPeriod(2 * kNs + 1, 2 * kNs), 4 * kNs);
}

TEST(Time, Format)
{
    EXPECT_EQ(formatTime(150 * kNs), "150ns");
    EXPECT_EQ(formatTime(2 * kUs + 500 * kNs), "2.5us");
    EXPECT_EQ(formatTime(1 * kSec), "1s");
    EXPECT_EQ(formatTime(500), "500ps");
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(30, [&] { order.push_back(3); });
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAt(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.scheduleAt(10, [&] { ++fired; });
    q.scheduleAt(20, [&] { ++fired; });
    q.scheduleAt(30, [&] { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.runUntil(100), 1u);
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, RunUntilAdvancesTimeWithEmptyQueue)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, EventsScheduledFromEvents)
{
    EventQueue q;
    std::vector<Tick> times;
    q.scheduleAt(10, [&] {
        times.push_back(q.now());
        q.scheduleAfter(5, [&] { times.push_back(q.now()); });
    });
    q.runAll();
    EXPECT_EQ(times, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, RestartedFlowTurnsItsEventIntoANoOp)
{
    EventQueue q;
    Flow flow;
    int fired = 0;
    q.scheduleAt(10, flow.guard([&] { ++fired; }));
    flow.restart();
    q.runAll();
    EXPECT_EQ(fired, 0);
    // The event itself still fired, as a no-op.
    EXPECT_EQ(q.executedEvents(), 1u);
    EXPECT_EQ(q.now(), 10);
}

TEST(EventQueue, RestartAfterFireIsHarmless)
{
    EventQueue q;
    Flow flow;
    int fired = 0;
    q.scheduleAt(10, flow.guard([&] { ++fired; }));
    q.runAll();
    EXPECT_EQ(fired, 1);
    flow.restart(); // nothing left to abandon
    q.scheduleAt(20, flow.guard([&] { ++fired; }));
    q.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SameTickFifoForEventsScheduledWhileDraining)
{
    // Events scheduled for a tick while the queue is already draining
    // events (of that tick or an earlier one) queue behind every event
    // that was pending for the tick: FIFO by sequence number.
    EventQueue q;
    const Tick target = kUs + 100;
    std::vector<int> order;
    q.scheduleAt(target, [&] {
        order.push_back(0);
        q.scheduleAt(target, [&] { order.push_back(3); });
    });
    q.scheduleAt(target - 50, [&] {
        q.scheduleAt(target, [&] { order.push_back(1); });
        q.scheduleAt(target, [&] { order.push_back(2); });
    });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, OrdersHorizonsFromOneTickToMilliseconds)
{
    // Horizons from one tick to 3x kChurnSpan, scheduled out of order
    // and with duplicate ticks, fire in (when, seq) order.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    const std::vector<Tick> whens = {
        kChurnSpan - 2 * kUs, kChurnSpan + 7, 5,  1,
        kChurnSpan - 1,       kChurnSpan,     kUs, 3 * kChurnSpan,
        3 * kChurnSpan - 1,   kChurnSpan + 7, 1,  3 * kChurnSpan,
    };
    std::vector<std::pair<Tick, int>> expect;
    for (int id = 0; id < static_cast<int>(whens.size()); ++id) {
        const Tick w = whens[static_cast<std::size_t>(id)];
        expect.emplace_back(w, id);
        q.scheduleAt(w, [&fired, &q, id] { fired.emplace_back(q.now(), id); });
    }
    q.runAll();
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, expect);
}

TEST(EventQueue, ShortTimerAfterLongQuietGap)
{
    EventQueue q;
    const Tick far = 10 * kChurnSpan + 123;
    bool inner = false;
    q.scheduleAt(far, [&] { q.scheduleAfter(100, [&] { inner = true; }); });
    q.runAll();
    EXPECT_TRUE(inner);
    EXPECT_EQ(q.now(), far + 100);
}

TEST(EventQueue, FiresInWhenSeqOrderUnderRandomChurn)
{
    // Differential check against the definition of the firing order.
    // Every schedule is logged in call order, which is sequence order,
    // so the fire log must equal the schedule log stable-sorted by
    // `when`. Schedules come from the driver loop, from callbacks and
    // from re-arms after a flow restart, with horizons from 1 ns to
    // 10 ms, and runUntil interleaves with them. Stale events fire too
    // (as no-ops), so they are logged like the rest.
    struct Churn
    {
        Rng rng{31};
        EventQueue q;
        std::array<Flow, 4> flows;
        std::vector<std::pair<Tick, int>> scheduled;
        std::vector<std::pair<Tick, int>> fired;

        /** Log-uniform over 1 ns..10 ms on a 1 ns grid, so ticks collide. */
        Tick
        horizon()
        {
            return kNs * static_cast<Tick>(std::pow(10.0, rng.uniform(0, 7)));
        }

        std::size_t
        anyFlow()
        {
            return static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(flows.size()) - 1));
        }

        void
        schedule(Tick when, std::size_t flow)
        {
            const int id = static_cast<int>(scheduled.size());
            scheduled.emplace_back(when, id);
            q.scheduleAt(when, [this, id,
                                body = flows[flow].guard([this] { onFire(); })]()
                                   mutable {
                fired.emplace_back(q.now(), id);
                body();
            });
        }

        /** Body of an event whose flow is still current. */
        void
        onFire()
        {
            const double u = rng.uniform();
            if (u < 0.3) {
                schedule(q.now() + horizon(), anyFlow());
            } else if (u < 0.4) {
                schedule(q.now(), anyFlow()); // same tick, behind the rest
            } else if (u < 0.5) {
                const std::size_t f = anyFlow();
                flows[f].restart();
                schedule(q.now() + horizon(), f);
            }
        }
    } c;

    for (int round = 0; round < 300; ++round) {
        const int burst = static_cast<int>(c.rng.uniformInt(0, 40));
        for (int i = 0; i < burst; ++i)
            c.schedule(c.q.now() + c.horizon(), c.anyFlow());
        if (round % 7 == 3) {
            const std::size_t f = c.anyFlow();
            c.flows[f].restart();
            c.schedule(c.q.now() + c.horizon(), f);
        }
        c.q.runUntil(c.q.now() + c.horizon());
        ASSERT_EQ(c.q.pendingEvents(), c.scheduled.size() - c.fired.size())
            << "round " << round;
    }
    c.q.runAll();
    EXPECT_EQ(c.q.pendingEvents(), 0u);
    EXPECT_GT(c.fired.size(), 5000u);

    std::vector<std::pair<Tick, int>> expect = c.scheduled;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(c.fired, expect);
}

/** Lifecycle log of probe-carrying callbacks: `r` when a callback
 *  returns, `d` when the callable holding the probe is destroyed. */
struct ProbeLog
{
    std::vector<std::pair<char, int>> log;
    std::vector<int> destroyed; ///< per probe id
};

/** Non-trivially-destructible capture that logs when the live copy
 *  dies; a moved-from probe logs nothing. */
struct Probe
{
    ProbeLog *owner;
    int id;
    std::string tag; ///< long enough to live on the heap

    static std::string
    tagFor(int id)
    {
        return "probe-" + std::to_string(id) + std::string(40, '.');
    }

    Probe(ProbeLog *o, int i) : owner(o), id(i), tag(tagFor(i)) {}
    Probe(const Probe &) = default;
    Probe(Probe &&o) noexcept
        : owner(std::exchange(o.owner, nullptr)), id(o.id),
          tag(std::move(o.tag))
    {}
    Probe &operator=(const Probe &) = delete;
    Probe &operator=(Probe &&) = delete;

    ~Probe()
    {
        if (owner) {
            ++owner->destroyed[static_cast<std::size_t>(id)];
            owner->log.emplace_back('d', id);
        }
    }
};

TEST(EventQueue, CallbacksRunInPlaceAndDieOnceAfterReturning)
{
    // step() runs each callable inside its pooled record. A callback
    // that schedules enough events to add slab chunks must still read
    // its own captures intact afterwards (ASan flags a record that
    // moved under it), every callable must be destroyed exactly once,
    // right after it returns, and the fire order must stay (when, seq).
    // Half the callbacks capture more than EventFn's 64 inline bytes,
    // so they take the heap fallback.
    struct Churn
    {
        Rng rng{41};
        EventQueue q;
        ProbeLog probes;
        std::vector<std::pair<Tick, int>> scheduled;
        std::vector<std::pair<Tick, int>> fired;
        std::size_t maxBurstGrowth = 0;

        void
        schedule(Tick when)
        {
            const int id = static_cast<int>(scheduled.size());
            scheduled.emplace_back(when, id);
            probes.destroyed.push_back(0);
            if (rng.uniform() < 0.5) {
                auto fn = [this, p = Probe(&probes, id)] { onFire(p); };
                static_assert(EventFn::storesInline<decltype(fn)>());
                q.scheduleAt(when, std::move(fn));
            } else {
                std::array<std::uint64_t, 8> pad{};
                pad.fill(static_cast<std::uint64_t>(id));
                auto fn = [this, pad, p = Probe(&probes, id)] {
                    for (const std::uint64_t x : pad)
                        EXPECT_EQ(x, static_cast<std::uint64_t>(p.id));
                    onFire(p);
                };
                static_assert(!EventFn::storesInline<decltype(fn)>());
                q.scheduleAt(when, std::move(fn));
            }
        }

        void
        onFire(const Probe &p)
        {
            EXPECT_EQ(probes.destroyed[static_cast<std::size_t>(p.id)], 0)
                << "probe " << p.id << " destroyed before it ran";
            fired.emplace_back(q.now(), p.id);
            // Bounded, so the churn dies out.
            const double u = scheduled.size() < 20000 ? rng.uniform() : 1.0;
            if (u < 0.02) {
                // A burst from inside a callback: several new chunks.
                const std::size_t before = q.poolCapacity();
                for (int i = 0; i < 48; ++i)
                    schedule(q.now() + kNs * rng.uniformInt(0, 50));
                maxBurstGrowth =
                    std::max(maxBurstGrowth, q.poolCapacity() - before);
            } else if (u < 0.4) {
                schedule(q.now() + kNs * rng.uniformInt(0, 2000));
            }
            // The captures survived whatever this callback scheduled.
            EXPECT_EQ(p.tag, Probe::tagFor(p.id));
            probes.log.emplace_back('r', p.id);
        }
    } c;

    for (int round = 0; round < 200; ++round) {
        const int burst = static_cast<int>(c.rng.uniformInt(0, 20));
        for (int i = 0; i < burst; ++i)
            c.schedule(c.q.now() + kNs * c.rng.uniformInt(0, 5000));
        c.q.runUntil(c.q.now() + kNs * c.rng.uniformInt(0, 3000));
    }
    c.q.runAll();

    ASSERT_GT(c.fired.size(), 3000u);
    EXPECT_GE(c.maxBurstGrowth, 32u); // the slab grew mid-callback
    // Exactly once each, and each right after its own callback
    // returned, before any other event ran.
    for (std::size_t id = 0; id < c.probes.destroyed.size(); ++id)
        ASSERT_EQ(c.probes.destroyed[id], 1) << "probe " << id;
    ASSERT_EQ(c.probes.log.size(), 2 * c.fired.size());
    for (std::size_t i = 0; i < c.probes.log.size(); i += 2) {
        ASSERT_EQ(c.probes.log[i].first, 'r') << "entry " << i;
        ASSERT_EQ(c.probes.log[i + 1],
                  std::make_pair('d', c.probes.log[i].second))
            << "entry " << i;
    }
    std::vector<std::pair<Tick, int>> expect = c.scheduled;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(c.fired, expect);
}

TEST(EventQueue, PendingCallablesDieOnceWithTheQueue)
{
    ProbeLog probes;
    probes.destroyed.assign(40, 0);
    {
        EventQueue q;
        for (int id = 0; id < 40; ++id) {
            if (id % 2 == 0)
                q.scheduleAt(10 + id, [p = Probe(&probes, id)] {});
            else
                q.scheduleAt(10 + id, [p = Probe(&probes, id),
                                       pad = std::array<char, 96>{}] {});
        }
        q.runUntil(29); // ids 0..19 fire
        EXPECT_EQ(q.pendingEvents(), 20u);
    }
    for (int id = 0; id < 40; ++id)
        EXPECT_EQ(probes.destroyed[static_cast<std::size_t>(id)], 1)
            << "probe " << id;
}

TEST(EventQueue, RestartThenFireRaceSameTick)
{
    // An event restarting the flow of a same-tick later event must win
    // the race: the victim is already queued but its body must
    // never run.
    EventQueue q;
    int fired = 0;
    Flow victim;
    q.scheduleAt(10, [&] { victim.restart(); });
    q.scheduleAt(10, victim.guard([&] { ++fired; }));
    q.scheduleAt(10, [&] { ++fired; }); // bystander after the victim
    q.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.executedEvents(), 3u); // the victim fired as a no-op
}

TEST(EventQueue, StaleEventKeepsItsTickSeqSlot)
{
    // Abandoning an event does not remove it: it fires as a no-op in
    // the (tick, seq) slot it was given. A same-tick event scheduled
    // after it still runs after it, and a re-armed replacement queues
    // behind both.
    EventQueue q;
    Flow flow;
    std::vector<int> order;
    q.scheduleAt(10, [&] { order.push_back(0); });
    q.scheduleAt(10, flow.guard([&] { order.push_back(1); }));
    q.scheduleAt(10, [&] { order.push_back(2); });
    flow.restart();
    q.scheduleAt(10, flow.guard([&] { order.push_back(3); }));

    ASSERT_TRUE(q.step());
    EXPECT_EQ(order, (std::vector<int>{0}));
    ASSERT_TRUE(q.step()); // the stale event, in its own slot
    EXPECT_EQ(order, (std::vector<int>{0}));
    ASSERT_TRUE(q.step());
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
    ASSERT_TRUE(q.step());
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.executedEvents(), 4u);
}

TEST(EventQueue, RescheduleFromCallbackPreservesOrder)
{
    // The classic hysteresis-timer pattern: restart + re-arm from
    // inside a callback, interleaved with an independent event stream.
    EventQueue q;
    std::vector<Tick> fired;
    Flow timer;
    q.scheduleAt(100, timer.guard([&] { fired.push_back(q.now()); }));
    q.scheduleAt(50, [&] {
        timer.restart();
        q.scheduleAt(150, timer.guard([&] { fired.push_back(q.now()); }));
    });
    q.scheduleAt(120, [&] { fired.push_back(q.now()); });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<Tick>{120, 150}));
}

TEST(EventQueue, SeededChurnReplayWithRestartStorms)
{
    // Deterministic replay under the nastiest schedule: random
    // schedules punctuated by epoch-style storms that abandon every
    // event scheduled so far (a server crash) while the queue is
    // mid-advance. Two runs with the same seed must fire the identical
    // (time, id) sequence.
    auto run = [](std::uint64_t seed) {
        Rng rng(seed);
        EventQueue q;
        std::vector<std::pair<Tick, int>> fired;
        Flow epoch;
        int id = 0;
        for (int round = 0; round < 40; ++round) {
            for (int i = 0; i < 200; ++i) {
                const Tick d =
                    1 + rng.uniformInt(
                            0, static_cast<int>(2 * kChurnSpan / sim::kUs)) *
                            (sim::kUs / 4);
                const int my = id++;
                q.scheduleAfter(d, epoch.guard([&fired, &q, my] {
                    fired.emplace_back(q.now(), my);
                }));
            }
            if (round % 4 == 3)
                epoch.restart(); // the storm
            q.runUntil(q.now() + 3 * sim::kUs);
        }
        q.runAll();
        return fired;
    };
    const auto a = run(23);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, run(23));
    EXPECT_NE(a, run(24));
}

TEST(EventQueue, DeterministicUnderRandomizedChurn)
{
    // Same seed => identical firing sequence, across a schedule/abandon
    // mix that exercises deep heaps and slot reuse. Each event has its
    // own flow, so abandoning one leaves the others armed.
    auto run = [](std::uint64_t seed) {
        Rng rng(seed);
        EventQueue q;
        std::vector<std::pair<Tick, int>> fired;
        std::deque<Flow> flows; // stable addresses for the guards
        int id = 0;
        for (int i = 0; i < 2000; ++i) {
            const Tick d = 1 + rng.uniformInt(
                0, static_cast<int>(2 * kChurnSpan / sim::kUs)) *
                (sim::kUs / 4);
            const int my = id++;
            Flow &flow = flows.emplace_back();
            q.scheduleAfter(d, flow.guard([&fired, &q, my] {
                fired.emplace_back(q.now(), my);
            }));
            if (i % 3 == 0)
                flows[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(flows.size() - 1)))].restart();
            if (i % 5 == 0)
                q.runUntil(q.now() + sim::kUs);
        }
        q.runAll();
        return fired;
    };
    EXPECT_EQ(run(17), run(17));
}

TEST(Simulation, NowAndAfter)
{
    Simulation s;
    Tick seen = -1;
    s.after(42, [&] { seen = s.now(); });
    s.runAll();
    EXPECT_EQ(seen, 42);
}

TEST(Simulation, DeterministicAcrossRuns)
{
    auto run = [](std::uint64_t seed) {
        Simulation s(seed);
        std::vector<double> xs;
        for (int i = 0; i < 16; ++i)
            xs.push_back(s.rng().uniform());
        return xs;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(Rng, ExponentialMean)
{
    Rng rng(123);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(25.0);
    EXPECT_NEAR(sum / n, 25.0, 0.5);
}

TEST(Rng, LognormalWithMeanHitsMean)
{
    Rng rng(5);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormalWithMean(20.0, 0.5);
    EXPECT_NEAR(sum / n, 20.0, 0.5);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.boundedPareto(1.2, 1.0, 100.0);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

// ------------------------------------------------ callback mechanism

TEST(WaitList, DrainRunsEntriesInFifoOrder)
{
    WaitList<> list;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        list.add([&order, i] { order.push_back(i); });
    EXPECT_FALSE(list.empty());
    list.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(list.empty());
    list.drain(); // nothing left: a no-op
    EXPECT_EQ(order.size(), 5u);
}

TEST(WaitList, EntryAddedDuringDrainRunsOnTheNextDrain)
{
    WaitList<> list;
    std::vector<int> order;
    list.add([&] {
        order.push_back(1);
        list.add([&] { order.push_back(3); });
    });
    list.add([&] { order.push_back(2); });
    list.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    ASSERT_FALSE(list.empty());
    list.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(WaitList, ReentrantDrainRunsWhatWasAddedBeforeIt)
{
    // The idiom it replaces: move the list out, then call each entry.
    // A drain re-entered from an entry runs the entries added so far
    // in the outer drain; the outer drain then finishes its own batch,
    // and anything added after the inner drain waits for the next one.
    WaitList<> list;
    std::vector<char> order;
    list.add([&] {
        order.push_back('a');
        list.add([&] { order.push_back('c'); });
        list.drain();
        list.add([&] { order.push_back('e'); });
    });
    list.add([&] { order.push_back('b'); });
    list.drain();
    EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b'}));
    list.drain();
    EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b', 'e'}));
    EXPECT_TRUE(list.empty());
}

TEST(WaitList, KeepsItsCapacityAcrossWakeCycles)
{
    WaitList<> list;
    int runs = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
        for (int i = 0; i < 16; ++i)
            list.add([&runs] { ++runs; });
        list.drain();
        // From the second cycle on, both buffers hold 16 entries, so
        // the next cycle's adds do not allocate.
        if (cycle >= 1) {
            EXPECT_GE(list.capacity(), 16u) << "cycle " << cycle;
        }
    }
    EXPECT_EQ(runs, 64);
}

TEST(Joins, ZeroPartsFiresOnceRightAway)
{
    Joins joins;
    int fired = 0;
    joins.start(0, [&] { ++fired; });
    EXPECT_EQ(fired, 1);
}

TEST(Joins, NPartsFireOnceOnTheLastArrival)
{
    Joins joins;
    int fired = 0;
    const auto id = joins.start(3, [&] { ++fired; });
    Callback a = joins.part(id);
    a();
    joins.arrive(id);
    EXPECT_EQ(fired, 0);
    joins.part(id)();
    EXPECT_EQ(fired, 1);
    // The slot is recycled for the next join without a stale count.
    const auto again = joins.start(1, [&] { fired += 10; });
    joins.arrive(again);
    EXPECT_EQ(fired, 11);
}

TEST(Joins, AbortedFlowsLatePartDoesNotCompleteANewerJoin)
{
    Joins joins;
    Flow flow;
    int old_done = 0, new_done = 0;
    // A flow starts a two-part join and one part arrives; then the
    // flow is aborted (restarted) and the new flow starts its own join.
    const auto old_id = joins.start(2, flow.guard([&] { ++old_done; }));
    joins.arrive(old_id);
    flow.restart();
    const auto new_id = joins.start(2, flow.guard([&] { ++new_done; }));
    joins.arrive(new_id);
    // The aborted flow's late part completes only its own join, whose
    // callback is a no-op now.
    joins.arrive(old_id);
    EXPECT_EQ(old_done, 0);
    EXPECT_EQ(new_done, 0);
    joins.arrive(new_id);
    EXPECT_EQ(new_done, 1);
}

TEST(Callback, NestsInsideAnEventWithoutAHeapFallback)
{
    Simulation s;
    int fired = 0;
    Callback cb = [&fired] { ++fired; };
    auto event = [self = &s, cb = std::move(cb)] {
        (void)self;
        cb();
    };
    static_assert(EventFn::storesInline<decltype(event)>());
    s.after(1, std::move(event));
    s.runUntil(10);
    EXPECT_EQ(fired, 1);
}

} // namespace
} // namespace apc::sim
