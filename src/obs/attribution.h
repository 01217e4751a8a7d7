/**
 * @file
 * Per-request tail-latency attribution, accumulated while requests run.
 *
 * The simulator's instrumentation (fleet spine, servers) charges every
 * latency-relevant interval a request crosses to one segment: fabric
 * transit, RTO retransmit waits, NIC RX-ring residency, the
 * coalescing/IRQ DMA hold, the package C-state exit, dispatch-queue
 * wait, cap-induced stalls (idle-injection gate overlap and DVFS-clamp
 * dilation), service, response transit, and the timeout/backoff gaps
 * of failed-over attempts. Charges add up per (request, server)
 * replica while the request is in flight:
 *
 *  - a server sums its share of each live request in a `ServerChain`
 *    and hands it to the fleet spine with the request's completion or
 *    abort;
 *  - the spine adds its own charges and the server shares into the
 *    request's `RequestChains`;
 *  - when the request's flight closes, `AttributionCollector` keeps
 *    only its critical replica: the chain whose segments **sum
 *    exactly** (integer ticks) to the client-observed latency. For a
 *    fanout request that is the slowest replica.
 *
 * The kept requests are ranked by (e2e, arrival, id): the blame report
 * cuts its percentile bands from that order and sums each band in it.
 * The collector stores them in fixed-size blocks and ranks each block
 * once, when it fills (the last one at `finalize`), by a radix sort on
 * the latency;
 * `AttributionResult::forEachRanked` merges the sorted blocks. The
 * per-request samples and the Perfetto flows take the earliest
 * arrivals, which `earliestArrivals` selects without sorting anything
 * by arrival.
 *
 * With tracing on, every charge is also recorded as a segment span on
 * `Track::Segments` for the Perfetto export (writer 0 is the spine,
 * with the server in `value`; writer i >= 1 is server i-1). The report
 * never reads the trace, so it is the same at any ring capacity and
 * with tracing off.
 */

#ifndef APC_OBS_ATTRIBUTION_H
#define APC_OBS_ATTRIBUTION_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/tracer.h"
#include "sim/time.h"

namespace apc::obs {

/** Latency segment taxonomy (order matches Name::SegXmitReq..). */
enum class Segment : std::uint8_t
{
    XmitReq = 0, ///< client -> server fabric transit (minus RTO)
    Rto,         ///< retransmit penalty (fabric RTO + NIC-drop resend)
    NicRing,     ///< RX-ring descriptor wait until the moderated IRQ
    IrqHold,     ///< IRQ -> DMA completion (coalescing hold)
    Wake,        ///< DMA done -> fabric open (package C-state exit)
    Queue,       ///< dispatch-queue wait (gate overlap excluded)
    StallGate,   ///< idle-injection gate overlap of the queue wait
    Serve,       ///< service time at the governor's frequency
    StallDvfs,   ///< extra service time from the cap's P-state clamp
    XmitResp,    ///< response TX + server -> client transit (minus RTO)
    TimeoutWait, ///< dispatch -> request timeout on abandoned attempts
    Failover,    ///< backoff gap before the failover re-dispatch
    kCount
};

inline constexpr std::size_t kNumSegments =
    static_cast<std::size_t>(Segment::kCount);

/** Short machine name ("xmit_req", "stall_gate", ...). */
const char *segmentName(Segment s);

/** The trace-vocabulary name a segment's spans are recorded under. */
inline Name
segmentTraceName(Segment s)
{
    return static_cast<Name>(static_cast<std::uint32_t>(Name::SegXmitReq) +
                             static_cast<std::uint32_t>(s));
}

/** Attribution setup (FleetConfig::attribution). */
struct AttributionConfig
{
    /** Master switch: charges every request's segments as it runs and
     *  builds the blame report (FleetReport::attribution). Independent
     *  of tracing; a traced run also records the segment spans. The
     *  report keeps about 136 bytes per finished request. */
    bool enabled = false;
};

/** Per-request samples carried into the exported report (exact integer
 *  ticks; CI validates additivity on them). */
inline constexpr std::size_t kAttributionSampleLimit = 256;

/** Perfetto flow arrows emitted into FleetSim::writeTrace() exports. */
inline constexpr std::size_t kAttributionFlowLimit = 256;

/** One replica's causal chain: the segment ticks of one server's
 *  attempt at a request, spine and server charges together. */
struct ReplicaPath
{
    std::uint32_t srv = 0;
    sim::Tick seg[kNumSegments] = {};

    sim::Tick
    total() const
    {
        sim::Tick t = 0;
        for (std::size_t i = 0; i < kNumSegments; ++i)
            t += seg[i];
        return t;
    }

    /** The segment holding the largest share of this chain. */
    Segment dominant() const;
};

/** One attributed request: its critical replica only. */
struct RequestPath
{
    std::uint64_t id = 0;
    sim::Tick arrival = 0;
    sim::Tick e2e = 0;           ///< client-observed latency (ticks)
    ReplicaPath critical;        ///< sums exactly to e2e
    std::uint32_t replicas = 0;  ///< replicas that charged a segment
};

/** The report's rank order: (e2e, arrival, id), a total order. */
inline bool
rankedBefore(const RequestPath &a, const RequestPath &b)
{
    if (a.e2e != b.e2e)
        return a.e2e < b.e2e;
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
}

/** The attribution of one run. */
struct AttributionResult
{
    /** Requests per storage block: about 2 MB, small enough to sort
     *  while the block is still cached, large enough that the merge
     *  interleaves few blocks. */
    static constexpr std::size_t kBlockRequests = 16384;

    /** The additive requests, in close order across blocks of
     *  kBlockRequests, each block sorted by rankedBefore once complete.
     *  Blocks are allocated once and never regrow: a single vector's
     *  doubling would briefly hold 1.5x every finished request. */
    std::vector<std::vector<RequestPath>> blocks;

    /** Attributed requests. */
    std::size_t
    size() const
    {
        return blocks.empty() ? 0
                              : (blocks.size() - 1) * kBlockRequests +
                blocks.back().size();
    }

    /** Call @p fn on every request in rank order: a k-way merge of the
     *  sorted blocks (after AttributionCollector::finalize). */
    template <typename Fn> void forEachRanked(Fn &&fn) const;

    /** Requests excluded because a replica was dropped beyond retry
     *  (they never answered the client; no end-to-end latency). */
    std::uint64_t lostExcluded = 0;
    /** Requests with no replica chain summing to their latency:
     *  additivity-invariant violations. Always 0 in a correct build
     *  (asserted in debug builds). */
    std::uint64_t violations = 0;
};

template <typename Fn>
void
AttributionResult::forEachRanked(Fn &&fn) const
{
    // One cursor per block; the heap keeps the cursor whose request
    // ranks first on top.
    struct Cursor
    {
        const RequestPath *at, *end;
    };
    std::vector<Cursor> heap;
    heap.reserve(blocks.size());
    for (const std::vector<RequestPath> &b : blocks)
        if (!b.empty())
            heap.push_back({b.data(), b.data() + b.size()});
    const auto later = [](const Cursor &a, const Cursor &b) {
        return rankedBefore(*b.at, *a.at);
    };
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Cursor &c = heap.back();
        fn(*c.at);
        // The merge reads as many streams as there are blocks, more
        // than the hardware prefetcher follows: fetch ahead by hand.
        __builtin_prefetch(c.at + 4);
        if (++c.at == c.end)
            heap.pop_back();
        else
            std::push_heap(heap.begin(), heap.end(), later);
    }
}

/**
 * A server's share of one live request: the ticks it charged to each
 * segment. Plain data, so it can ride the fleet's staged completion
 * and abort events without allocating.
 */
struct ServerChain
{
    sim::Tick seg[kNumSegments] = {};
    bool charged = false;

    void
    add(Segment s, sim::Tick dur)
    {
        seg[static_cast<std::size_t>(s)] += dur;
        charged = true;
    }
};

/** The replica chains of one in-flight request (fleet spine side). */
class RequestChains
{
  public:
    /** Charge a fleet-spine interval to @p srv's replica. */
    void
    charge(std::uint32_t srv, Segment s, sim::Tick dur)
    {
        replica(srv).seg[static_cast<std::size_t>(s)] += dur;
    }

    /** Add server @p srv's share of its replica. */
    void merge(std::uint32_t srv, const ServerChain &c);

    /** No segment charged yet. */
    bool empty() const { return first_.srv == kNoReplica; }

  private:
    friend class AttributionCollector;

    static constexpr std::uint32_t kNoReplica = UINT32_MAX;

    /** @p srv's replica, created on its first charge. */
    ReplicaPath &
    replica(std::uint32_t srv)
    {
        return first_.srv == srv ? first_ : otherReplica(srv);
    }
    ReplicaPath &otherReplica(std::uint32_t srv);

    /** Replicas in first-charge order, first_ then more_: when two
     *  replicas sum exactly to the request's latency, the first one is
     *  critical. Most requests have one replica, held inline. */
    ReplicaPath first_{kNoReplica, {}};
    std::vector<ReplicaPath> more_;
};

/**
 * Streaming attribution for one fleet run: keeps each closed
 * request's critical replica.
 */
class AttributionCollector
{
  public:
    /** The request answered the client after @p e2e ticks: keep its
     *  critical replica (asserts in debug builds that one exists). */
    void finish(std::uint64_t id, sim::Tick arrival, sim::Tick e2e,
                const RequestChains &chains);

    /** The request never answered the client: count it as excluded if
     *  any segment was charged to it. */
    void lost(const RequestChains &chains);

    /** Rank the last, partly filled block; call once, after the last
     *  finish(). */
    void finalize();

    const AttributionResult &result() const { return res_; }

  private:
    /** Sort @p block by rankedBefore. */
    void rankBlock(std::vector<RequestPath> &block);

    AttributionResult res_;
    /** rankBlock scratch, reused by every block: latency keys and a
     *  spare block that trades places with each ranked one. */
    struct RankKey
    {
        sim::Tick e2e;
        std::uint32_t at; ///< index in the block
    };
    std::vector<RankKey> keys_, keysTmp_;
    std::vector<RequestPath> spare_;
};

/**
 * The first @p limit requests of @p res by (arrival, id), in that
 * order: a bounded selection over the ranked requests.
 */
std::vector<const RequestPath *>
earliestArrivals(const AttributionResult &res, std::size_t limit);

/**
 * Perfetto flow arrows for the first @p limit attributed requests by
 * arrival:
 * start at the client arrival (fleet, requests track), step at the
 * critical replica's serve start (server, segments track), finish at
 * the client delivery (fleet, requests track).
 */
std::vector<FlowEvent> buildFlows(const AttributionResult &res,
                                  std::size_t limit);

} // namespace apc::obs

#endif // APC_OBS_ATTRIBUTION_H
