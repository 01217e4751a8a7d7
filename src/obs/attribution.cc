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
RequestChains::otherReplica(std::uint32_t srv)
{
    if (first_.srv == kNoReplica) {
        first_.srv = srv;
        return first_;
    }
    for (ReplicaPath &r : more_)
        if (r.srv == srv)
            return r;
    more_.push_back({srv, {}});
    return more_.back();
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
    const ReplicaPath *critical = nullptr;
    if (!chains.empty() && chains.first_.total() == e2e) {
        critical = &chains.first_;
    } else {
        const auto it = std::find_if(
            chains.more_.begin(), chains.more_.end(),
            [e2e](const ReplicaPath &r) { return r.total() == e2e; });
        if (it != chains.more_.end())
            critical = &*it;
    }
    if (!critical) {
        ++res_.violations;
        assert(!"attribution additivity violated");
        return;
    }
    std::vector<std::vector<RequestPath>> &blocks = res_.blocks;
    if (blocks.empty() ||
        blocks.back().size() == AttributionResult::kBlockRequests) {
        blocks.emplace_back();
        blocks.back().reserve(AttributionResult::kBlockRequests);
    }
    std::vector<RequestPath> &block = blocks.back();
    block.push_back({id, arrival, e2e, *critical,
                     static_cast<std::uint32_t>(1 + chains.more_.size())});
    // Rank a block once it is complete, while it is still in cache.
    if (block.size() == AttributionResult::kBlockRequests)
        rankBlock(block);
}

void
AttributionCollector::rankBlock(std::vector<RequestPath> &block)
{
    // Comparison sorts spend their time on mispredicted branches over
    // random latencies. Instead: a stable LSD radix sort of (e2e,
    // index) keys, 11 bits a pass, for as many passes as the largest
    // latency needs; then each run of equal latency by (arrival, id);
    // then the records gathered in that order.
    constexpr int kBits = 11;
    constexpr sim::Tick kMask = (sim::Tick{1} << kBits) - 1;
    const std::size_t n = block.size();
    keys_.resize(n);
    keysTmp_.resize(n);
    sim::Tick hi = 0;
    for (std::size_t i = 0; i < n; ++i) {
        assert(block[i].e2e >= 0);
        keys_[i] = {block[i].e2e, static_cast<std::uint32_t>(i)};
        hi = std::max(hi, block[i].e2e);
    }
    for (int shift = 0; (hi >> shift) > 0; shift += kBits) {
        std::size_t start[kMask + 2] = {};
        for (const RankKey &k : keys_)
            ++start[((k.e2e >> shift) & kMask) + 1];
        for (sim::Tick d = 0; d <= kMask; ++d)
            start[d + 1] += start[d];
        for (const RankKey &k : keys_)
            keysTmp_[start[(k.e2e >> shift) & kMask]++] = k;
        keys_.swap(keysTmp_);
    }
    const auto before = [&block](const RankKey &a, const RankKey &b) {
        return rankedBefore(block[a.at], block[b.at]);
    };
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n && keys_[j].e2e == keys_[i].e2e)
            ++j;
        if (j - i > 1)
            std::sort(keys_.begin() + static_cast<std::ptrdiff_t>(i),
                      keys_.begin() + static_cast<std::ptrdiff_t>(j),
                      before);
        i = j;
    }
    spare_.clear();
    spare_.reserve(AttributionResult::kBlockRequests);
    for (const RankKey &k : keys_)
        spare_.push_back(block[k.at]);
    block.swap(spare_);
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
    // Complete blocks were ranked as they filled.
    if (!res_.blocks.empty() &&
        res_.blocks.back().size() < AttributionResult::kBlockRequests)
        rankBlock(res_.blocks.back());
}

std::vector<const RequestPath *>
earliestArrivals(const AttributionResult &res, std::size_t limit)
{
    const auto before = [](const RequestPath *a, const RequestPath *b) {
        return a->arrival != b->arrival ? a->arrival < b->arrival
                                        : a->id < b->id;
    };
    // A max-heap of the earliest requests seen so far: the latest of
    // them sits on top, ready to be displaced.
    std::vector<const RequestPath *> kept;
    kept.reserve(std::min(limit, res.size()));
    if (limit == 0)
        return kept;
    for (const std::vector<RequestPath> &block : res.blocks) {
        for (const RequestPath &rp : block) {
            if (kept.size() < limit) {
                kept.push_back(&rp);
                std::push_heap(kept.begin(), kept.end(), before);
            } else if (before(&rp, kept.front())) {
                std::pop_heap(kept.begin(), kept.end(), before);
                kept.back() = &rp;
                std::push_heap(kept.begin(), kept.end(), before);
            }
        }
    }
    std::sort_heap(kept.begin(), kept.end(), before);
    return kept;
}

std::vector<FlowEvent>
buildFlows(const AttributionResult &res, std::size_t limit)
{
    std::vector<FlowEvent> flows;
    const std::vector<const RequestPath *> first =
        earliestArrivals(res, limit);
    flows.reserve(3 * first.size());
    for (const RequestPath *req : first) {
        const RequestPath &rp = *req;
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
