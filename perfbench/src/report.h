/**
 * @file
 * Result plumbing shared by the workloads: the check ledger behind
 * `attempted`/`failed`/`correct`, the engine counters read off each
 * ServerSim after a run, report digests, and the one-line JSON result.
 */

#ifndef APC_PERFBENCH_REPORT_H
#define APC_PERFBENCH_REPORT_H

#include <malloc.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "server/server_sim.h"

namespace perfbench {

/**
 * Every check the benchmark makes (the repetitions of a workload count
 * as one, see RepeatChecks). A conservation, determinism or
 * sanity check that fails is a hard failure (`correct` false, non-zero
 * exit); audit violations the simulator's own auditor reports are
 * counted as failed operations against its check count but do not
 * abort the run.
 */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool hardFailure = false;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        hardFailure = true;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }

    void
    countAudit(std::uint64_t checks, std::uint64_t violations)
    {
        attempted += checks;
        failed += violations;
    }
};

/**
 * The checks of the repetitions that must reproduce the first one at
 * the same seed. They run in full, and a failure still fails the run,
 * but they are tallied as one check: each repeats the first one's
 * checks on identical outputs, and counting them all would make
 * `attempted` and `failed` grow with how many repetitions the host
 * fits into --seconds rather than depend on the seed alone.
 */
struct RepeatChecks
{
    Checks scratch;

    /** Tally every repetition seen so far as one check in @p into. */
    void
    settle(Checks &into, const std::string &what) const
    {
        into.expect(!scratch.hardFailure, what);
    }
};

/** Event-engine counters summed over a set of ServerSims. */
struct EngineTally
{
    std::uint64_t servers = 0;
    std::uint64_t requests = 0; ///< completed over the whole run
    std::uint64_t executed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t heapScheduled = 0;
    std::uint64_t poolRecords = 0;

    void
    add(apc::server::ServerSim &s)
    {
        const auto &q = s.sim().events();
        ++servers;
        requests += s.completed();
        executed += q.executedEvents();
        scheduled += q.wheelScheduled() + q.heapScheduled();
        heapScheduled += q.heapScheduled();
        poolRecords += q.poolCapacity();
    }
};

/** Heap bytes the allocator has handed out and not taken back. */
inline double
heapInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/** FNV-1a, the digest every determinism check compares. */
inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Named metrics in print order, each with its unit. */
class Metrics
{
  public:
    /** Add a metric, or update the value of one already added (its
     *  unit stays the one it was added with). */
    void
    set(const std::string &name, double value, const char *unit = nullptr)
    {
        for (auto &m : items_)
            if (m.name == name) {
                m.value = value;
                return;
            }
        if (!unit) {
            std::fprintf(stderr, "metric %s set before it was declared\n",
                         name.c_str());
            undeclared_ = true;
            return;
        }
        items_.push_back({name, value, unit});
    }

    /** Every metric declared before use and finite. */
    bool
    valid() const
    {
        if (undeclared_)
            return false;
        for (const auto &m : items_)
            if (!std::isfinite(m.value)) {
                std::fprintf(stderr, "metric %s is not finite\n",
                             m.name.c_str());
                return false;
            }
        return true;
    }

    /** Human-readable block (stdout, before the JSON line). */
    void
    printTable() const
    {
        for (const auto &m : items_)
            std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value,
                        m.unit);
    }

    /** The result line; must be the last line of stdout. */
    void
    printJson(bool correct, const Checks &c) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.failed));
        for (std::size_t i = 0; i < items_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", items_[i].name.c_str(),
                        std::isfinite(items_[i].value) ? items_[i].value
                                                       : 0.0,
                        items_[i].unit);
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items_;
    bool undeclared_ = false;
};

} // namespace perfbench

#endif // APC_PERFBENCH_REPORT_H
