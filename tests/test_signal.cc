/**
 * @file
 * Unit tests for the wire/signal model (sim/signal.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/signal.h"

namespace apc::sim {
namespace {

TEST(Signal, InitialValueAndName)
{
    Simulation s;
    Signal w(s, "wire", false);
    EXPECT_FALSE(w.read());
    EXPECT_EQ(w.name(), "wire");
    Signal w2(s, "wire2", true);
    EXPECT_TRUE(w2.read());
}

TEST(Signal, WriteNotifiesOnEdgeOnly)
{
    Simulation s;
    Signal w(s, "w");
    int edges = 0;
    w.subscribe([&](bool) { ++edges; });
    w.write(true);
    w.write(true); // no edge
    w.write(false);
    EXPECT_EQ(edges, 2);
    EXPECT_EQ(w.risingEdges(), 1u);
    EXPECT_EQ(w.fallingEdges(), 1u);
}

TEST(Signal, ObserverReceivesNewLevel)
{
    Simulation s;
    Signal w(s, "w");
    std::vector<bool> seen;
    w.subscribe([&](bool v) { seen.push_back(v); });
    w.set();
    w.clear();
    EXPECT_EQ(seen, (std::vector<bool>{true, false}));
}

// Subscriptions are wiring: subscribing from inside an observer would
// push_back into the observer list while one of its inline callables is
// executing, so debug builds reject it.
TEST(SignalDeathTest, SubscribeDuringDispatchAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulation s;
    Signal w(s, "w");
    w.subscribe([&w](bool) { w.subscribe([](bool) {}); });
    EXPECT_DEBUG_DEATH(w.set(), "subscribe during dispatch");
}

TEST(Signal, WriteAfterAppliesAtDelay)
{
    Simulation s;
    Signal w(s, "w");
    Tick seen_at = -1;
    w.subscribe([&](bool v) {
        if (v)
            seen_at = s.now();
    });
    w.writeAfter(5 * kNs, true);
    EXPECT_FALSE(w.read()); // not yet
    s.runAll();
    EXPECT_TRUE(w.read());
    EXPECT_EQ(seen_at, 5 * kNs);
}

TEST(Signal, LastWriteWinsOverInFlightDelayed)
{
    Simulation s;
    Signal w(s, "w");
    w.writeAfter(10 * kNs, true);
    // A newer immediate write supersedes the scheduled one.
    w.write(false);
    s.runAll();
    EXPECT_FALSE(w.read());
}

TEST(Signal, NewerDelayedWriteSupersedesOlder)
{
    Simulation s;
    Signal w(s, "w");
    w.writeAfter(10 * kNs, true);
    w.writeAfter(2 * kNs, false); // supersedes; stays false
    s.runAll();
    EXPECT_FALSE(w.read());
    EXPECT_EQ(w.risingEdges(), 0u);
}

TEST(Signal, ZeroDelayWriteAfterIsImmediate)
{
    Simulation s;
    Signal w(s, "w");
    w.writeAfter(0, true);
    EXPECT_TRUE(w.read());
}

/** The wire before no-op elision: every delayed write is scheduled,
 *  and a superseded or same-level one fires as a no-op. */
class NaiveWire
{
  public:
    NaiveWire(Simulation &sim, bool initial) : sim_(sim), value_(initial)
    {}

    bool read() const { return value_; }
    void subscribe(SignalObserver fn) { subs_.push_back(std::move(fn)); }

    void
    write(bool v)
    {
        writes_.restart();
        apply(v);
    }

    void
    writeAfter(Tick delay, bool v)
    {
        if (delay <= 0) {
            write(v);
            return;
        }
        writes_.restart();
        sim_.after(delay, writes_.guard([this, v] { apply(v); }));
    }

  private:
    void
    apply(bool v)
    {
        if (v == value_)
            return;
        value_ = v;
        for (SignalObserver &fn : subs_)
            fn(v);
    }

    Simulation &sim_;
    bool value_;
    Flow writes_;
    std::vector<SignalObserver> subs_;
};

/** Drive @p w with a seeded random mix of immediate and delayed
 *  writes (some re-driven from the edge observer itself) and return
 *  its (tick, level) edge log. */
template <typename Wire>
std::vector<std::pair<Tick, bool>>
edgeLog(std::uint64_t seed, std::uint64_t *scheduled)
{
    Simulation s;
    Wire w(s, seed % 2 == 0);
    std::vector<std::pair<Tick, bool>> log;
    w.subscribe([&](bool v) {
        log.emplace_back(s.now(), v);
        // Feedback the way an AND tree re-drives its output: bounded
        // so the run ends.
        if (log.size() < 2000 && log.size() % 3 == 0)
            w.writeAfter(static_cast<Tick>(log.size() % 7) * kNs, !v);
    });
    std::mt19937_64 rng(seed);
    for (int op = 0; op < 4000; ++op) {
        const Tick at = static_cast<Tick>(rng() % 200000) * 10;
        const bool v = rng() % 2 == 0;
        const int kind = static_cast<int>(rng() % 4);
        const Tick delay = static_cast<Tick>(rng() % 5000);
        s.at(at, [&w, v, kind, delay] {
            if (kind == 0)
                w.write(v);
            else
                w.writeAfter(kind == 1 ? 0 : delay, v);
        });
    }
    s.runAll();
    *scheduled = s.events().heapScheduled();
    return log;
}

TEST(Signal, ElidedNoOpWritesKeepTheEdgeLog)
{
    // A delayed write of the level already on the wire is skipped (the
    // restart stays): the edge log must match a wire that schedules
    // every write, while fewer events are scheduled.
    struct Real : Signal
    {
        Real(Simulation &sim, bool initial) : Signal(sim, "w", initial) {}
    };
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::uint64_t naive_events = 0, real_events = 0;
        const auto naive = edgeLog<NaiveWire>(seed, &naive_events);
        const auto real = edgeLog<Real>(seed, &real_events);
        ASSERT_GT(naive.size(), 100u);
        ASSERT_EQ(real, naive) << "seed " << seed;
        EXPECT_LT(real_events, naive_events) << "seed " << seed;
    }
}

TEST(AndTree, EmptyTreeIsFalse)
{
    Simulation s;
    AndTree t(s, "and", 0);
    EXPECT_FALSE(t.combinational());
    EXPECT_FALSE(t.output().read());
}

TEST(AndTree, OutputRisesWhenAllInputsHigh)
{
    Simulation s;
    Signal a(s, "a"), b(s, "b"), c(s, "c");
    AndTree t(s, "and", 0);
    t.addInput(a);
    t.addInput(b);
    t.addInput(c);
    a.set();
    b.set();
    s.runAll();
    EXPECT_FALSE(t.output().read());
    c.set();
    s.runAll();
    EXPECT_TRUE(t.output().read());
}

TEST(AndTree, OutputFallsWhenAnyInputDrops)
{
    Simulation s;
    Signal a(s, "a", true), b(s, "b", true);
    AndTree t(s, "and", 0);
    t.addInput(a);
    t.addInput(b);
    s.runAll();
    EXPECT_TRUE(t.output().read());
    a.clear();
    s.runAll();
    EXPECT_FALSE(t.output().read());
}

TEST(AndTree, PropagationDelayApplies)
{
    Simulation s;
    Signal a(s, "a"), b(s, "b");
    AndTree t(s, "and", 2 * kNs);
    t.addInput(a);
    t.addInput(b);
    Tick rise_at = -1;
    t.output().subscribe([&](bool v) {
        if (v)
            rise_at = s.now();
    });
    s.runUntil(100 * kNs);
    a.set();
    b.set();
    s.runAll();
    EXPECT_EQ(rise_at, 102 * kNs);
}

TEST(AndTree, GlitchShorterThanDelayIsSwallowed)
{
    Simulation s;
    Signal a(s, "a", true), b(s, "b", true);
    AndTree t(s, "and", 2 * kNs);
    t.addInput(a);
    t.addInput(b);
    s.runAll();
    ASSERT_TRUE(t.output().read());
    // Drop and re-raise within the propagation delay: last-change-wins
    // means the output never falls.
    int falls = 0;
    t.output().subscribe([&](bool v) {
        if (!v)
            ++falls;
    });
    a.clear();
    a.set();
    s.runAll();
    EXPECT_TRUE(t.output().read());
    EXPECT_EQ(falls, 0);
}

TEST(AndTree, AlreadyHighInputsReflectedAtAttach)
{
    Simulation s;
    Signal a(s, "a", true), b(s, "b", true);
    AndTree t(s, "and", 0);
    t.addInput(a);
    t.addInput(b);
    s.runAll();
    EXPECT_TRUE(t.output().read());
}

/** The AND tree as it was before it counted its high inputs: every
 *  input edge rescans all inputs. The differential reference. */
class ScanAndTree
{
  public:
    ScanAndTree(Simulation &sim, Tick prop_delay)
        : propDelay_(prop_delay), out_(sim, "scan", false)
    {}

    void
    addInput(Signal &in)
    {
        inputs_.push_back(&in);
        in.subscribe([this](bool) { update(); });
        update();
    }

    bool
    combinational() const
    {
        return !inputs_.empty() &&
            std::all_of(inputs_.begin(), inputs_.end(),
                        [](const Signal *s) { return s->read(); });
    }

    Signal &output() { return out_; }

  private:
    void update() { out_.writeAfter(propDelay_, combinational()); }

    Tick propDelay_;
    Signal out_;
    std::vector<Signal *> inputs_;
};

TEST(AndTree, CountedTreeMatchesAFullRescanUnderRandomToggles)
{
    // Seeded random toggles of N inputs, immediate and delayed, some
    // attached only after the run started (already high or not): the
    // counted tree's output edge log must equal the rescanning
    // reference's, and combinational() must equal all_of on every
    // input edge.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        std::mt19937_64 rng(seed);
        const int n = 1 + static_cast<int>(seed % 10);
        const Tick delay = static_cast<Tick>(rng() % 3) * kNs;
        Simulation s;
        AndTree tree(s, "and", delay);
        ScanAndTree ref(s, delay);
        std::vector<std::unique_ptr<Signal>> in;
        for (int i = 0; i < n; ++i)
            in.push_back(std::make_unique<Signal>(
                s, "in" + std::to_string(i), rng() % 4 != 0));

        std::vector<std::pair<Tick, bool>> got, want;
        tree.output().subscribe(
            [&](bool v) { got.emplace_back(s.now(), v); });
        ref.output().subscribe(
            [&](bool v) { want.emplace_back(s.now(), v); });
        int attached = 0, checked = 0;
        auto attach = [&](int i) {
            Signal &w = *in[static_cast<std::size_t>(i)];
            tree.addInput(w);
            ref.addInput(w);
            ++attached;
            // Subscribed after both trees, so it sees their state
            // after the edge.
            w.subscribe([&](bool) {
                ++checked;
                EXPECT_EQ(tree.combinational(), ref.combinational())
                    << "seed " << seed << " at " << s.now();
            });
        };
        // The first half is wired at time zero, the rest mid-run.
        const int early = (n + 1) / 2;
        for (int i = 0; i < early; ++i)
            attach(i);
        s.at(500 * kNs, [&] {
            for (int i = early; i < n; ++i)
                attach(i);
        });
        for (int op = 0; op < 3000; ++op) {
            const Tick at = static_cast<Tick>(rng() % 1000) * kNs;
            const auto i = static_cast<std::size_t>(rng() % n);
            // Bias toward high so the AND actually rises.
            const bool v = rng() % 5 != 0;
            const bool later = rng() % 2 == 0;
            const Tick d = static_cast<Tick>(rng() % 4) * kNs;
            s.at(at, [&w = *in[i], v, later, d] {
                if (later)
                    w.writeAfter(d, v);
                else
                    w.write(v);
            });
        }
        s.runAll();
        EXPECT_EQ(attached, n);
        EXPECT_GT(checked, 100) << "seed " << seed;
        EXPECT_GT(want.size(), 4u) << "seed " << seed;
        EXPECT_EQ(got, want) << "seed " << seed;
        EXPECT_EQ(tree.combinational(), ref.combinational());
    }
}

} // namespace
} // namespace apc::sim
