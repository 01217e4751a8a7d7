#include "obs/attribution.h"

#include <algorithm>
#include <cassert>

namespace apc::obs {

const char *
segmentName(Segment s)
{
    constexpr const char *names[kNumSegments] = {
        "xmit_req",   "rto",      "nic_ring",     "irq_hold",
        "wake",       "queue",    "stall_gate",   "serve",
        "stall_dvfs", "xmit_resp", "timeout_wait", "failover"};
    return names[static_cast<std::size_t>(s)];
}

Segment
ReplicaPath::dominant() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < kNumSegments; ++i)
        if (seg[i] > seg[best])
            best = i;
    return static_cast<Segment>(best);
}

ReplicaPath &
RequestChains::replica(std::uint32_t srv)
{
    for (ReplicaPath &r : replicas_)
        if (r.srv == srv)
            return r;
    replicas_.push_back({srv, {}});
    return replicas_.back();
}

void
RequestChains::merge(std::uint32_t srv, const ServerChain &c)
{
    if (!c.charged)
        return;
    ReplicaPath &rp = replica(srv);
    for (std::size_t i = 0; i < kNumSegments; ++i)
        rp.seg[i] += c.seg[i];
}

void
AttributionCollector::finish(std::uint64_t id, sim::Tick arrival,
                             sim::Tick e2e, const RequestChains &chains)
{
    // The critical replica is the first one whose chain sums exactly
    // to the client-observed latency. Under failover a stale attempt
    // can keep charging after the winning response resolved the
    // request, so its chain may exceed e2e: the slowest replica is not
    // always the critical one.
    const auto critical = std::find_if(
        chains.replicas_.begin(), chains.replicas_.end(),
        [e2e](const ReplicaPath &r) { return r.total() == e2e; });
    if (critical == chains.replicas_.end()) {
        ++res_.violations;
        assert(!"attribution additivity violated");
        return;
    }
    res_.requests.push_back(
        {id, arrival, e2e, *critical,
         static_cast<std::uint32_t>(chains.replicas_.size())});
}

void
AttributionCollector::lost(const RequestChains &chains)
{
    if (!chains.empty())
        ++res_.lostExcluded;
}

void
AttributionCollector::finalize()
{
    // Requests close in flight-erase order; report them by arrival.
    std::sort(res_.requests.begin(), res_.requests.end(),
              [](const RequestPath &a, const RequestPath &b) {
                  return a.arrival != b.arrival ? a.arrival < b.arrival
                                                : a.id < b.id;
              });
}

std::vector<FlowEvent>
buildFlows(const AttributionResult &res, std::size_t limit)
{
    std::vector<FlowEvent> flows;
    const std::size_t n = std::min(limit, res.requests.size());
    flows.reserve(3 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const RequestPath &rp = res.requests[i];
        const ReplicaPath &cp = rp.critical;
        const sim::Tick serve_start = rp.arrival + rp.e2e -
            cp.seg[static_cast<std::size_t>(Segment::Serve)] -
            cp.seg[static_cast<std::size_t>(Segment::StallDvfs)] -
            cp.seg[static_cast<std::size_t>(Segment::XmitResp)];
        flows.push_back({rp.id, 0, rp.arrival,
                         static_cast<std::uint8_t>(Track::Requests), 0});
        flows.push_back({rp.id, cp.srv + 1, serve_start,
                         static_cast<std::uint8_t>(Track::Segments), 1});
        flows.push_back({rp.id, 0, rp.arrival + rp.e2e,
                         static_cast<std::uint8_t>(Track::Requests), 2});
    }
    return flows;
}

} // namespace apc::obs
