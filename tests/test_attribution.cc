/**
 * @file
 * Tail-latency attribution tests: streaming chain assembly from
 * synthetic charges, the exact-additivity invariant on a fabric+NIC+cap
 * fleet grid (every critical path sums to its request's measured
 * end-to-end latency in integer ticks), the zero-footprint contract
 * (reports byte-identical with attribution on or off, across thread
 * counts and shard layouts), independence from tracing, blame-report
 * export shape, and Perfetto flow events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "fleet/fleet_sim.h"
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "stats/rank.h"

namespace apc {
namespace {

using sim::kMs;
using sim::kUs;

sim::Tick
segOf(const obs::ReplicaPath &rp, obs::Segment s)
{
    return rp.seg[static_cast<std::size_t>(s)];
}

// ------------------------------------------------- streaming assembly

TEST(Attribution, ReassemblesSyntheticFanoutChain)
{
    obs::AttributionCollector col;
    obs::RequestChains chains;

    // Request 7: fanout to servers 0 and 1; server 1 is the slow leg.
    // Replica on server 0 (fast): 10 xmit + 5 wake + 20 serve + 10 resp.
    chains.charge(0, obs::Segment::XmitReq, 10 * kUs);
    obs::ServerChain fast;
    fast.add(obs::Segment::Wake, 5 * kUs);
    fast.add(obs::Segment::Serve, 20 * kUs);
    chains.merge(0, fast);
    chains.charge(0, obs::Segment::XmitResp, 10 * kUs);
    // Replica on server 1 (critical): sums to the full 50 us.
    chains.charge(1, obs::Segment::XmitReq, 10 * kUs);
    obs::ServerChain slow;
    slow.add(obs::Segment::Queue, 8 * kUs);
    slow.add(obs::Segment::StallGate, 4 * kUs);
    slow.add(obs::Segment::Serve, 18 * kUs);
    slow.add(obs::Segment::StallDvfs, 2 * kUs);
    chains.merge(1, slow);
    chains.charge(1, obs::Segment::XmitResp, 8 * kUs);

    col.finish(7, 100 * kUs, 50 * kUs, chains);
    col.finalize();
    const obs::AttributionResult &res = col.result();
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.lostExcluded, 0u);
    ASSERT_EQ(res.size(), 1u);

    const obs::RequestPath &rp = res.blocks[0][0];
    EXPECT_EQ(rp.id, 7u);
    EXPECT_EQ(rp.arrival, 100 * kUs);
    EXPECT_EQ(rp.e2e, 50 * kUs);
    EXPECT_EQ(rp.replicas, 2u);

    const obs::ReplicaPath &cp = rp.critical;
    EXPECT_EQ(cp.srv, 1u); // the slow leg won
    EXPECT_EQ(cp.total(), 50 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::XmitReq), 10 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::Queue), 8 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::StallGate), 4 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::Serve), 18 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::StallDvfs), 2 * kUs);
    EXPECT_EQ(segOf(cp, obs::Segment::XmitResp), 8 * kUs);
    EXPECT_EQ(cp.dominant(), obs::Segment::Serve);
}

TEST(Attribution, RequestsAreRankedByLatencyThenArrival)
{
    // Requests close in flight-erase order; finalize() ranks them by
    // (e2e, arrival, id), the samples and flows take them by (arrival,
    // id), and an uncharged server share adds no replica.
    obs::AttributionCollector col;
    const auto one = [](std::uint32_t srv, sim::Tick serve) {
        obs::RequestChains c;
        c.merge(srv + 1, obs::ServerChain{});
        obs::ServerChain s;
        s.add(obs::Segment::Serve, serve);
        c.merge(srv, s);
        return c;
    };
    col.finish(5, 30 * kUs, 9 * kUs, one(2, 9 * kUs));
    col.finish(4, 10 * kUs, 8 * kUs, one(0, 8 * kUs));
    col.finish(3, 10 * kUs, 8 * kUs, one(1, 8 * kUs));
    col.finish(6, 5 * kUs, 8 * kUs, one(3, 8 * kUs));
    col.finish(7, 1 * kUs, 20 * kUs, one(0, 20 * kUs));
    col.finalize();
    const obs::AttributionResult &res = col.result();
    ASSERT_EQ(res.size(), 5u);
    std::vector<const obs::RequestPath *> ranked;
    res.forEachRanked(
        [&ranked](const obs::RequestPath &rp) { ranked.push_back(&rp); });
    const std::uint64_t by_rank[] = {6, 3, 4, 5, 7};
    ASSERT_EQ(ranked.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(ranked[i]->id, by_rank[i]) << "rank " << i;
    EXPECT_EQ(ranked[1]->replicas, 1u);
    EXPECT_EQ(ranked[1]->critical.srv, 1u);

    const std::uint64_t by_arrival[] = {7, 6, 3, 4, 5};
    const auto first = obs::earliestArrivals(res, 5);
    ASSERT_EQ(first.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(first[i]->id, by_arrival[i]) << "arrival " << i;
    const auto three = obs::earliestArrivals(res, 3);
    ASSERT_EQ(three.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(three[i]->id, by_arrival[i]);
    EXPECT_TRUE(obs::earliestArrivals(res, 0).empty());

    const auto rep = obs::LatencyAttribution::build(res, 4);
    ASSERT_EQ(rep.samples.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(rep.samples[i].id, by_arrival[i]);
    const auto flows = obs::buildFlows(res, 2);
    ASSERT_EQ(flows.size(), 6u);
    EXPECT_EQ(flows[0].id, 7u);
    EXPECT_EQ(flows[3].id, 6u);
}

TEST(Attribution, BlockMergeRanksLikeOneSort)
{
    // Several storage blocks, closed out of arrival order and full of
    // latency ties: the merged rank order is one sort by (e2e,
    // arrival, id), and each band sums its requests in that order.
    obs::AttributionCollector col;
    std::vector<obs::RequestPath> all;
    std::uint64_t x = 17;
    const auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 33;
    };
    const std::size_t n = 3 * obs::AttributionResult::kBlockRequests + 123;
    for (std::uint64_t id = 0; id < n; ++id) {
        const sim::Tick arrival = static_cast<sim::Tick>(next() % 5000) * kUs;
        const sim::Tick wait = static_cast<sim::Tick>(next() % 40) * kUs;
        const sim::Tick serve = static_cast<sim::Tick>(1 + next() % 7) * kUs;
        obs::RequestChains c;
        c.charge(static_cast<std::uint32_t>(id % 5), obs::Segment::Queue,
                 wait);
        c.charge(static_cast<std::uint32_t>(id % 5), obs::Segment::Serve,
                 serve);
        col.finish(id, arrival, wait + serve, c);
        all.push_back({id, arrival, wait + serve, {}, 1});
    }
    col.finalize();
    std::sort(all.begin(), all.end(),
              [](const obs::RequestPath &a, const obs::RequestPath &b) {
                  return std::tie(a.e2e, a.arrival, a.id) <
                      std::tie(b.e2e, b.arrival, b.id);
              });
    const obs::AttributionResult &res = col.result();
    ASSERT_EQ(res.blocks.size(), 4u);
    std::vector<std::uint64_t> merged;
    res.forEachRanked([&merged](const obs::RequestPath &rp) {
        merged.push_back(rp.id);
    });
    ASSERT_EQ(merged.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(merged[i], all[i].id) << "rank " << i;

    const auto rep = obs::LatencyAttribution::build(res, 0);
    const auto edges = stats::percentileBandEdges(n);
    for (std::size_t b = 0; b < obs::LatencyAttribution::kNumBands; ++b) {
        double e2e = 0.0;
        for (std::size_t r = edges[b]; r < edges[b + 1]; ++r)
            e2e += sim::toMicros(all[r].e2e);
        const auto count = static_cast<double>(edges[b + 1] - edges[b]);
        EXPECT_EQ(rep.bands[b].count, edges[b + 1] - edges[b]);
        EXPECT_EQ(rep.bands[b].e2eMeanUs, count > 0 ? e2e * (1.0 / count)
                                                    : 0.0)
            << "band " << b;
    }
}

TEST(Attribution, LostRequestsAreExcluded)
{
    obs::AttributionCollector col;
    obs::RequestChains charged;
    charged.charge(0, obs::Segment::XmitReq, 5 * kUs);
    col.lost(charged);
    // A request lost before any segment was charged has no chain.
    col.lost(obs::RequestChains{});
    col.finalize();

    const obs::AttributionResult &res = col.result();
    EXPECT_EQ(res.size(), 0u);
    EXPECT_EQ(res.lostExcluded, 1u);
    EXPECT_EQ(res.violations, 0u);
}

// ---------------------------------------------- fleet-level invariants

fleet::FleetConfig
gridFleet(std::size_t servers, unsigned threads, std::size_t shard_size,
          bool attribution)
{
    fleet::FleetConfig fc;
    fc.numServers = servers;
    fc.policy = soc::PackagePolicy::Cpc1a;
    fc.workload = workload::WorkloadConfig::memcachedEtc(0);
    fc.dispatch = fleet::DispatchKind::LeastOutstanding;
    fc.traffic.arrivalKind = workload::ArrivalKind::Poisson;
    fc.traffic.qps = fc.workload.qpsForUtilization(
        0.05, static_cast<int>(fc.numServers) * 10);
    fc.traffic.fanout = {0.05, 4};
    fc.sloUs = 10000.0;
    fc.warmup = 4 * kMs;
    fc.duration = 12 * kMs;
    fc.seed = 99;
    fc.threads = threads;
    fc.shardSize = shard_size;
    // The full stack: lossy fabric + NIC coalescing + oversubscribed
    // budget capping (both actuators), so every segment class can
    // appear on a critical path.
    fc.fabric.enabled = true;
    fc.nic.enabled = true;
    fc.nic.rxUsecs = 20 * kUs;
    fc.budget.enabled = true;
    fc.budget.oversubscription = 1.5;
    fc.cap.actuator = cap::CapActuator::Hybrid;
    fc.attribution.enabled = attribution;
    return fc;
}

TEST(AttributionFleet, ThousandServerGridIsExactlyAdditive)
{
    fleet::FleetSim fleet(gridFleet(1000, 8, 0, true));
    const fleet::FleetReport rep = fleet.run();
    ASSERT_GT(rep.dispatched, 1000u);

    // Every chain must be present and exact.
    ASSERT_TRUE(rep.attribution.enabled);
    EXPECT_EQ(rep.attribution.violations, 0u);
    EXPECT_GT(rep.attribution.requests, 1000u);
    EXPECT_GT(rep.attribution.fanoutRequests, 0u);

    // Exact integer additivity on every carried sample: the critical
    // path's segments sum to the measured end-to-end latency.
    ASSERT_GT(rep.attribution.samples.size(), 100u);
    for (const obs::RequestSample &s : rep.attribution.samples) {
        sim::Tick sum = 0;
        for (std::size_t k = 0; k < obs::kNumSegments; ++k)
            sum += s.segTicks[k];
        ASSERT_EQ(sum, s.e2eTicks) << "request " << s.id;
    }

    // Bands partition the attributed population, and each band's
    // per-segment means sum (in FP) to its end-to-end mean.
    std::uint64_t banded = 0;
    for (std::size_t b = 0; b < obs::LatencyAttribution::kNumBands; ++b) {
        const obs::BlameBand &band = rep.attribution.bands[b];
        banded += band.count;
        if (band.count == 0)
            continue;
        double sum = 0.0;
        for (double v : band.segMeanUs)
            sum += v;
        EXPECT_NEAR(sum, band.e2eMeanUs, 1e-6 * band.e2eMeanUs + 1e-9)
            << "band " << obs::LatencyAttribution::bandLabel(b);
    }
    EXPECT_EQ(banded, rep.attribution.requests);

    // Critical-segment counts cover every attributed request.
    std::uint64_t critical = 0;
    for (std::uint64_t c : rep.attribution.criticalBySegment)
        critical += c;
    EXPECT_EQ(critical, rep.attribution.requests);

    // The grid ran hot enough that serve time isn't the whole story.
    EXPECT_GT(rep.attribution.tailMeanUs(obs::Segment::Serve), 0.0);
}

TEST(AttributionFleet, ZeroFootprintAcrossThreadsAndShardLayouts)
{
    // Reports must be byte-identical with attribution on or off, at any
    // thread count and shard size — and the attribution itself must be
    // identical across layouts.
    const fleet::FleetReport plain =
        fleet::FleetSim(gridFleet(192, 1, 0, false)).run();
    const std::string reference = plain.csvRow();

    struct Point
    {
        unsigned threads;
        std::size_t shardSize;
    };
    std::string ref_blame;
    for (const Point &p : std::vector<Point>{{1, 0}, {2, 7}, {8, 64}}) {
        fleet::FleetSim fleet(
            gridFleet(192, p.threads, p.shardSize, true));
        const fleet::FleetReport rep = fleet.run();
        EXPECT_EQ(rep.csvRow(), reference)
            << "threads=" << p.threads << " shardSize=" << p.shardSize;
        EXPECT_EQ(rep.attribution.violations, 0u);

        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *f = open_memstream(&buf, &len);
        ASSERT_TRUE(rep.attribution.writeJson(f));
        std::fclose(f);
        std::string blame(buf, len);
        free(buf);
        if (ref_blame.empty())
            ref_blame = blame;
        else
            EXPECT_EQ(blame, ref_blame)
                << "blame report differs at threads=" << p.threads;
    }
}

TEST(AttributionFleet, BlameReportExportShape)
{
    fleet::FleetSim fleet(gridFleet(32, 2, 0, true));
    const fleet::FleetReport rep = fleet.run();
    ASSERT_TRUE(rep.attribution.enabled);

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    ASSERT_TRUE(rep.attribution.writeCsv(f));
    std::fclose(f);
    std::string csv(buf, len);
    free(buf);
    EXPECT_NE(csv.find("band,count,e2e_mean_us"), std::string::npos);
    EXPECT_NE(csv.find("stall_gate_us"), std::string::npos);
    for (const char *band : {"p50", "p95", "p99", "p999", "p100"})
        EXPECT_NE(csv.find(std::string("\n") + band + ","),
                  std::string::npos)
            << band;

    f = open_memstream(&buf, &len);
    ASSERT_TRUE(rep.attribution.writeJson(f));
    std::fclose(f);
    std::string json(buf, len);
    free(buf);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"segments\": [\"xmit_req\", \"rto\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bands\": ["), std::string::npos);
    EXPECT_NE(json.find("\"blame_us\""), std::string::npos);
    EXPECT_NE(json.find("\"critical_segment_counts\""), std::string::npos);
    EXPECT_NE(json.find("\"samples\": ["), std::string::npos);
    EXPECT_NE(json.find("\"seg_ticks\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
    EXPECT_FALSE(rep.attribution.writeJson("/nonexistent/dir/blame.json"));
}

TEST(AttributionFleet, TraceExportCarriesFlowEvents)
{
    auto fc = gridFleet(32, 2, 0, true);
    fc.trace.enabled = true;
    fleet::FleetSim fleet(fc);
    (void)fleet.run();
    const std::string path = "/tmp/apc_test_attr_trace.json";
    ASSERT_TRUE(fleet.writeTrace(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string out;
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, n);
    std::fclose(f);
    std::remove(path.c_str());

    // Segment spans and the s/t/f flow triplets made it into the export.
    EXPECT_NE(out.find("\"name\":\"seg_serve\""), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"name\":\"segments\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"req_flow\""), std::string::npos);
}

TEST(AttributionFleet, PlainTracesCarryNoSegments)
{
    // Tracing without attribution records request spans but charges no
    // segments: no segment spans, and no blame report.
    auto fc = gridFleet(32, 2, 0, false);
    fc.trace.enabled = true;
    fleet::FleetSim fleet(fc);
    const fleet::FleetReport rep = fleet.run();
    EXPECT_FALSE(rep.attribution.enabled);
    EXPECT_EQ(rep.attribution.requests, 0u);
    std::size_t requests = 0, segments = 0;
    for (const obs::Tracer::MergedRecord &m : fleet.tracer()->merged()) {
        if (m.rec->name == static_cast<obs::StrId>(obs::Name::Request))
            ++requests;
        if (m.rec->track == static_cast<std::uint8_t>(obs::Track::Segments))
            ++segments;
    }
    EXPECT_GT(requests, 0u);
    EXPECT_EQ(segments, 0u);
}

TEST(AttributionFleet, BlameReportIsIndependentOfTracing)
{
    // The report is charged as requests run and never reads the trace
    // rings: tracing off, ample rings and rings that wrap all give the
    // same bytes.
    const auto blame = [](bool traced, std::size_t ring,
                          std::uint64_t *drops) {
        auto fc = gridFleet(32, 2, 0, true);
        fc.trace.enabled = traced;
        fc.trace.ringCapacity = ring;
        const fleet::FleetReport rep = fleet::FleetSim(fc).run();
        *drops = rep.traceDrops;
        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *f = open_memstream(&buf, &len);
        EXPECT_TRUE(rep.attribution.writeJson(f));
        std::fclose(f);
        std::string out(buf, len);
        free(buf);
        return out;
    };
    std::uint64_t drops = 0;
    const std::string untraced = blame(false, 1u << 16, &drops);
    EXPECT_EQ(drops, 0u);
    EXPECT_NE(untraced.find("\"requests\": "), std::string::npos);
    EXPECT_EQ(blame(true, std::size_t{1} << 22, &drops), untraced);
    EXPECT_EQ(drops, 0u);
    EXPECT_EQ(blame(true, 512, &drops), untraced);
    EXPECT_GT(drops, 0u); // the rings did wrap
}

} // namespace
} // namespace apc
