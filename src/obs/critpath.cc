#include "obs/critpath.h"

#include "obs/fmt.h"
#include "stats/rank.h"

namespace apc::obs {

Segment
BlameBand::dominant() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < kNumSegments; ++i)
        if (segMeanUs[i] > segMeanUs[best])
            best = i;
    return static_cast<Segment>(best);
}

const char *
LatencyAttribution::bandLabel(std::size_t band)
{
    static_assert(kNumBands == stats::kNumPercentileBands,
                  "blame bands mirror the shared percentile bands");
    return stats::percentileBandLabel(band);
}

LatencyAttribution
LatencyAttribution::build(const AttributionResult &res,
                          std::size_t sample_limit)
{
    LatencyAttribution out;
    out.enabled = true;
    out.requests = res.size();
    out.lostExcluded = res.lostExcluded;
    out.violations = res.violations;

    const std::size_t n = res.size();
    if (n == 0)
        return out;

    // Cut the bands at exact ranks of the (e2e, arrival, id) order,
    // ceil(n*p) requests at or below the p-quantile, and sum each band
    // in rank order.
    const auto edges = stats::percentileBandEdges(n);
    std::size_t rank = 0, b = 0;
    res.forEachRanked([&](const RequestPath &rp) {
        while (rank == edges[b + 1])
            ++b; // skip empty bands
        ++rank;
        BlameBand &band = out.bands[b];
        const ReplicaPath &cp = rp.critical;
        ++band.count;
        band.e2eMeanUs += sim::toMicros(rp.e2e);
        for (std::size_t s = 0; s < kNumSegments; ++s)
            band.segMeanUs[s] += sim::toMicros(cp.seg[s]);
        if (rp.replicas > 1)
            ++out.fanoutRequests;
        ++out.criticalBySegment[static_cast<std::size_t>(cp.dominant())];
    });
    for (BlameBand &band : out.bands) {
        if (band.count > 0) {
            const double inv = 1.0 / static_cast<double>(band.count);
            band.e2eMeanUs *= inv;
            for (double &v : band.segMeanUs)
                v *= inv;
        }
    }

    const std::vector<const RequestPath *> first =
        earliestArrivals(res, sample_limit);
    out.samples.reserve(first.size());
    for (const RequestPath *req : first) {
        const RequestPath &rp = *req;
        const ReplicaPath &cp = rp.critical;
        RequestSample s;
        s.id = rp.id;
        s.srv = cp.srv;
        s.replicas = rp.replicas;
        s.e2eTicks = rp.e2e;
        for (std::size_t k = 0; k < kNumSegments; ++k)
            s.segTicks[k] = cp.seg[k];
        out.samples.push_back(s);
    }
    return out;
}

double
LatencyAttribution::tailMeanUs(Segment s) const
{
    // The two bands above p99 (p99-p999 and >p999), count-weighted.
    const std::size_t si = static_cast<std::size_t>(s);
    std::uint64_t count = 0;
    double acc = 0.0;
    for (std::size_t b = 3; b < kNumBands; ++b) {
        // lint:allow(float-accum) fixed band-index order over a
        // fixed-shape table; identical on every layout
        acc += bands[b].segMeanUs[si] *
            static_cast<double>(bands[b].count);
        count += bands[b].count;
    }
    return count ? acc / static_cast<double>(count) : 0.0;
}

Segment
LatencyAttribution::tailDominant() const
{
    std::size_t best = 0;
    double best_us = tailMeanUs(static_cast<Segment>(0));
    for (std::size_t i = 1; i < kNumSegments; ++i) {
        const double us = tailMeanUs(static_cast<Segment>(i));
        if (us > best_us) {
            best_us = us;
            best = i;
        }
    }
    return static_cast<Segment>(best);
}

bool
LatencyAttribution::writeCsv(std::FILE *out) const
{
    bool ok = true;
    const auto put = [out, &ok](const char *fmt, auto... args) {
        if (std::fprintf(out, fmt, args...) < 0)
            ok = false;
    };
    put("band,count,e2e_mean_us");
    for (std::size_t s = 0; s < kNumSegments; ++s)
        put(",%s_us", segmentName(static_cast<Segment>(s)));
    put(",dominant\n");
    for (std::size_t b = 0; b < kNumBands; ++b) {
        const BlameBand &band = bands[b];
        put("%s,%llu,%s", bandLabel(b),
            static_cast<unsigned long long>(band.count),
            fmtDouble(band.e2eMeanUs).c_str());
        for (std::size_t s = 0; s < kNumSegments; ++s)
            put(",%s", fmtDouble(band.segMeanUs[s]).c_str());
        put(",%s\n", segmentName(band.dominant()));
    }
    if (std::fflush(out) != 0)
        ok = false;
    return ok && !std::ferror(out);
}

bool
LatencyAttribution::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = writeCsv(f);
    return std::fclose(f) == 0 && ok;
}

bool
LatencyAttribution::writeJson(std::FILE *out) const
{
    bool ok = true;
    const auto put = [out, &ok](const char *fmt, auto... args) {
        if (std::fprintf(out, fmt, args...) < 0)
            ok = false;
    };
    put("{\n  \"schema_version\": %d,\n", kBlameSchemaVersion);
    put("  \"requests\": %llu,\n",
        static_cast<unsigned long long>(requests));
    put("  \"fanout_requests\": %llu,\n",
        static_cast<unsigned long long>(fanoutRequests));
    put("  \"lost_excluded\": %llu,\n",
        static_cast<unsigned long long>(lostExcluded));
    // Schema v1 keys: the report is charged as requests run and reads
    // no trace records, so it has no broken chains and no drops.
    put("  \"incomplete\": 0,\n");
    put("  \"violations\": %llu,\n",
        static_cast<unsigned long long>(violations));
    put("  \"trace_drops\": 0,\n");
    put("  \"segments\": [");
    for (std::size_t s = 0; s < kNumSegments; ++s)
        put("%s\"%s\"", s ? ", " : "", segmentName(static_cast<Segment>(s)));
    put("],\n  \"bands\": [\n");
    for (std::size_t b = 0; b < kNumBands; ++b) {
        const BlameBand &band = bands[b];
        put("    {\"band\": \"%s\", \"count\": %llu, "
            "\"e2e_mean_us\": %s, \"dominant\": \"%s\", \"blame_us\": {",
            bandLabel(b), static_cast<unsigned long long>(band.count),
            fmtDouble(band.e2eMeanUs).c_str(),
            segmentName(band.dominant()));
        for (std::size_t s = 0; s < kNumSegments; ++s)
            put("%s\"%s\": %s", s ? ", " : "",
                segmentName(static_cast<Segment>(s)),
                fmtDouble(band.segMeanUs[s]).c_str());
        put("}}%s\n", b + 1 < kNumBands ? "," : "");
    }
    put("  ],\n  \"critical_segment_counts\": {");
    for (std::size_t s = 0; s < kNumSegments; ++s)
        put("%s\"%s\": %llu", s ? ", " : "",
            segmentName(static_cast<Segment>(s)),
            static_cast<unsigned long long>(criticalBySegment[s]));
    put("},\n  \"samples\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const RequestSample &s = samples[i];
        put("    {\"id\": %llu, \"srv\": %u, \"replicas\": %u, "
            "\"e2e_ticks\": %lld, \"seg_ticks\": {",
            static_cast<unsigned long long>(s.id), s.srv, s.replicas,
            static_cast<long long>(s.e2eTicks));
        for (std::size_t k = 0; k < kNumSegments; ++k)
            put("%s\"%s\": %lld", k ? ", " : "",
                segmentName(static_cast<Segment>(k)),
                static_cast<long long>(s.segTicks[k]));
        put("}}%s\n", i + 1 < samples.size() ? "," : "");
    }
    put("  ]\n}\n");
    if (std::fflush(out) != 0)
        ok = false;
    return ok && !std::ferror(out);
}

bool
LatencyAttribution::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = writeJson(f);
    return std::fclose(f) == 0 && ok;
}

} // namespace apc::obs
