/**
 * @file
 * Span tracing: binary ring-buffer trace writers with static name
 * ids, merged deterministically and exported as Chrome/Perfetto
 * `trace_event` JSON.
 *
 * Design constraints, in priority order:
 *
 *  1. **Zero behavioral footprint.** Recording only ever writes into a
 *     preallocated POD ring — no RNG draws, no event scheduling, no
 *     signal edges — so a traced run's FleetReport is byte-identical to
 *     the untraced run.
 *  2. **No per-event heap allocation.** A `TraceRecord` is a 48-byte
 *     POD; the ring grows amortized up to its capacity and then wraps
 *     (drop-oldest, counted). Names are 4-byte ids into one static
 *     vocabulary (`Name`).
 *  3. **Single-writer buffers.** Each fleet entity (the fleet spine,
 *     every server) records into its own `TraceWriter`; during a
 *     parallel advance phase a server's writer is touched only by the
 *     worker advancing that server's shard. Merging happens after the
 *     run, single-threaded, in `(ts, writer, seq)` order — a total
 *     order independent of thread count and shard layout, so the merged
 *     trace itself is deterministic (see `Tracer::digest`).
 *
 * Export opens in any `chrome://tracing` / https://ui.perfetto.dev
 * viewer: one process per entity, one thread per `Track`, request
 * lifecycles as complete spans, package power states as state spans,
 * cap/budget actuations as counter tracks.
 */

#ifndef APC_OBS_TRACER_H
#define APC_OBS_TRACER_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/interner.h"
#include "sim/annotations.h"
#include "sim/time.h"

namespace apc::obs {

class PhaseProfiler;

/** Perfetto "thread" each record lands on within its entity. */
enum class Track : std::uint8_t
{
    Requests = 0, ///< request lifecycle spans
    Power,        ///< package power-state spans
    Cap,          ///< power-cap limit/actuation counters
    Nic,          ///< NIC interrupts and ring drops
    Budget,       ///< rack budget-allocator decisions
    Engine,       ///< wall-clock pipeline-phase spans (profiler)
    Segments,     ///< latency-attribution segment spans
    Health,       ///< SLO burn-rate alerts and invariant-audit events
};

inline constexpr std::size_t kNumTracks = 8;

/** Display name for a track. */
const char *trackName(Track t);

/** Static trace vocabulary: every record names one of these. */
enum class Name : std::uint32_t
{
    // Request lifecycle.
    Request = 0, ///< fleet-level span: client arrival -> delivery
    Wait,        ///< server span: arrival -> service start
    Serve,       ///< server span: service start -> response queued
    Lost,        ///< instant: request dropped beyond retry
    // Package power states (order matches soc::PkgState).
    PkgPc0,
    PkgPc0idle,
    PkgAcc1,
    PkgPc1a,
    PkgPc2,
    PkgPc6,
    // NIC.
    NicIrq,  ///< instant: moderated interrupt fired (value = batch)
    NicDrop, ///< instant: RX ring tail drop
    // Power capping.
    CapLimitW, ///< counter: enforced package power limit
    CapPowerW, ///< counter: controller's sliding-window power
    CapClamp,  ///< counter: P-state clamp index (-1 = unclamped)
    CapDuty,   ///< counter: forced-idle injection duty
    // Rack budget allocation.
    RackBudgetW,     ///< counter: rack budget in force
    RackDemandW,     ///< counter: summed server demand
    RackAllocW,      ///< counter: summed granted limits
    BudgetEmergency, ///< instant: floors emergency-scaled
    // Engine pipeline phases (wall clock; emitted via PhaseProfiler).
    Route,
    Advance,
    Merge,
    Collect,
    // Latency-attribution segments (order matches obs::Segment in
    // attribution.h; emitted only when attribution is enabled). Spans
    // on the fleet writer carry the server in `value`; spans on a
    // server writer imply that server.
    SegXmitReq,   ///< client -> server fabric transit (minus RTO)
    SegRto,       ///< RTO retransmit penalty (fabric + NIC-drop resend)
    SegNicRing,   ///< RX-ring descriptor wait until the moderated IRQ
    SegIrqHold,   ///< IRQ -> DMA completion (coalescing hold)
    SegWake,      ///< DMA done -> fabric open (package C-state exit)
    SegQueue,     ///< dispatch-queue wait (gate overlap excluded)
    SegStallGate, ///< idle-injection gate overlap of the queue wait
    SegServe,     ///< service time at the governor's frequency
    SegStallDvfs, ///< extra service time from the cap's P-state clamp
    SegXmitResp,  ///< response TX + server -> client transit (minus RTO)
    SegTimeoutWait, ///< dispatch -> timeout on an attempt the client
                    ///< abandoned (fleet writer; value = final server)
    SegFailover,    ///< backoff gap between a failed attempt and its
                    ///< re-dispatch (fleet writer; value = new server)
    // Rack budget allocation (traced by cap/budget.cc).
    RackUnmetW, ///< counter: demand the waterfill left unsatisfied
    // Fleet health (obs/health.h): SLO burn-rate alert lifecycles as
    // spans (fired -> resolved, id = window-pair index, value = worst
    // burn while active), per-SLI burn-rate counters, and invariant
    // audit violations as instants (value = AuditCheck index).
    AlertLatency,
    AlertAvailability,
    AlertPower,
    BurnLatency,
    BurnAvailability,
    BurnPower,
    AuditViolation,
    // Fault injection (src/fault): lifecycle events on the Health
    // track. Instants mark the fault instant (id = server; core-link
    // flaps use id = fault::kCoreLinkEntity); spans cover the whole
    // unavailability window including the restart cold start.
    SrvCrash,   ///< instant: server crashed, in-flight work destroyed
    SrvDrain,   ///< instant: server stopped admitting (graceful drain)
    SrvRestart, ///< instant: server back in the pick set
    SrvDown,    ///< span: out of the pick set (crash/drain -> ready)
    LinkFlap,   ///< span: forced 100% loss window on a fabric link
    NicFreeze,  ///< span: RX interrupt-moderation unit wedged

    kCount
};

/** Display string for a static name. */
const char *nameString(Name n);

/** Static name for package state index @p s (soc::PkgState order). */
inline Name
pkgStateTraceName(std::size_t s)
{
    return static_cast<Name>(static_cast<std::uint32_t>(Name::PkgPc0) +
                             static_cast<std::uint32_t>(s));
}

/** Record kind; maps onto Perfetto phases 'X' / 'i' / 'C'. */
enum class TraceKind : std::uint8_t
{
    Span = 0, ///< complete span [ts, ts+dur)
    Instant,  ///< point event
    Counter,  ///< time-series sample of `value`
};

/** One POD trace record — the only thing hot paths write. */
struct TraceRecord
{
    sim::Tick ts = 0;     ///< simulated start time
    sim::Tick dur = 0;    ///< span length (Span only)
    std::uint64_t id = 0; ///< correlation id (request id, kind id)
    double value = 0.0;   ///< counter value / instant payload
    StrId name = 0;
    std::uint32_t seq = 0; ///< per-writer recording order
    std::uint8_t kind = 0; ///< TraceKind
    std::uint8_t track = 0;
    std::uint16_t pad = 0;
};

static_assert(sizeof(TraceRecord) <= 48, "trace record stays compact");

/**
 * Single-writer bounded ring of trace records. The vector grows
 * amortized up to the capacity, then wraps over the oldest records
 * (SoCWatch-style: a bounded trace keeps the most recent window).
 *
 * Ring ownership is a capability (`ring_`): during a parallel advance
 * phase exactly one worker — the one advancing the writer's entity —
 * may record, and the deterministic merge reads only after the workers
 * quiesced. The guards below are no-ops at runtime; they make every
 * ring access inside this class visible to clang's thread-safety
 * analysis, while the cross-thread single-writer discipline itself is
 * checked dynamically by the TSan CI job.
 */
class TraceWriter
{
  public:
    TraceWriter(std::uint32_t entity, std::size_t capacity)
        : entity_(entity), cap_(capacity ? capacity : 1)
    {
    }

    /** Lowest-level append; the span/instant/counter helpers wrap it. */
    void
    record(TraceKind k, Track tr, sim::Tick ts, sim::Tick dur, StrId name,
           std::uint64_t id, double value)
    {
        sim::RoleGuard own(ring_);
        TraceRecord r;
        r.ts = ts;
        r.dur = dur;
        r.id = id;
        r.value = value;
        r.name = name;
        r.seq = seq_++;
        r.kind = static_cast<std::uint8_t>(k);
        r.track = static_cast<std::uint8_t>(tr);
        if (buf_.size() < cap_) {
            buf_.push_back(r);
        } else {
            buf_[head_] = r;
            if (++head_ == cap_)
                head_ = 0;
            wrapped_ = true;
        }
    }

    void
    span(sim::Tick ts, sim::Tick dur, Name n, Track tr,
         std::uint64_t id = 0, double value = 0.0)
    {
        record(TraceKind::Span, tr, ts, dur, static_cast<StrId>(n), id,
               value);
    }

    void
    instant(sim::Tick ts, Name n, Track tr, std::uint64_t id = 0,
            double value = 0.0)
    {
        record(TraceKind::Instant, tr, ts, 0, static_cast<StrId>(n), id,
               value);
    }

    void
    counter(sim::Tick ts, Name n, Track tr, double value)
    {
        record(TraceKind::Counter, tr, ts, 0, static_cast<StrId>(n), 0,
               value);
    }

    std::uint32_t entity() const { return entity_; }

    /** Records ever appended (including since-overwritten ones). */
    std::uint64_t
    recorded() const
    {
        sim::SharedRoleGuard own(ring_);
        return seq_;
    }

    /** Records lost to ring wrap-around. */
    std::uint64_t
    dropped() const
    {
        sim::SharedRoleGuard own(ring_);
        return seq_ - buf_.size();
    }

    /** Live records. */
    std::size_t
    size() const
    {
        sim::SharedRoleGuard own(ring_);
        return buf_.size();
    }

    /** Visit live records oldest-first (recording order). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        sim::SharedRoleGuard own(ring_);
        if (!wrapped_) {
            for (const TraceRecord &r : buf_)
                fn(r);
            return;
        }
        for (std::size_t i = head_; i < buf_.size(); ++i)
            fn(buf_[i]);
        for (std::size_t i = 0; i < head_; ++i)
            fn(buf_[i]);
    }

  private:
    /** Single-writer ring capability (see class comment). */
    mutable sim::Role ring_;
    std::vector<TraceRecord> buf_ APC_GUARDED_BY(ring_);
    std::uint32_t entity_;
    std::size_t cap_;
    std::size_t head_ APC_GUARDED_BY(ring_) = 0;
    bool wrapped_ APC_GUARDED_BY(ring_) = false;
    std::uint32_t seq_ APC_GUARDED_BY(ring_) = 0;
};

/**
 * One Perfetto flow arrow: client arrival -> server serve -> client
 * delivery. POD; built post-run (e.g. by the attribution layer) and
 * rendered by Tracer::writePerfettoJson as 's'/'t'/'f' steps sharing
 * the flow id.
 */
struct FlowEvent
{
    std::uint64_t id = 0;  ///< flow correlation id (request id)
    std::uint32_t pid = 0; ///< entity the step lands on
    sim::Tick ts = 0;
    std::uint8_t track = 0;
    std::uint8_t phase = 0; ///< 0 = start 's', 1 = step 't', 2 = end 'f'
};

/** Tracer setup. */
struct TraceConfig
{
    bool enabled = false;
    /** Per-writer ring capacity in records (48 B each). Memory is only
     *  committed as records are written; full rings wrap. */
    std::size_t ringCapacity = 1u << 16;
};

/**
 * The fleet-wide tracer: one writer per entity plus the merge and
 * Perfetto export.
 */
class Tracer
{
  public:
    /** @param num_writers writer 0 is conventionally the fleet spine;
     *  1..N the servers. */
    Tracer(TraceConfig cfg, std::size_t num_writers);

    TraceWriter *writer(std::size_t i) { return writers_[i].get(); }
    const TraceWriter *writer(std::size_t i) const
    {
        return writers_[i].get();
    }
    std::size_t numWriters() const { return writers_.size(); }

    /** Display string for a record's name id. */
    static const char *nameOf(StrId id)
    {
        return nameString(static_cast<Name>(id));
    }

    /** Display label for a writer's entity in the export ("fleet",
     *  "server 3", ...). Defaults to "writer N". */
    void setEntityLabel(std::size_t writer, std::string label);

    std::uint64_t totalRecorded() const;
    std::uint64_t totalDropped() const;

    /** One merged record with its originating writer index. */
    struct MergedRecord
    {
        const TraceRecord *rec;
        std::uint32_t writer;
    };

    /** All live records in `(ts, writer, seq)` order — the canonical
     *  deterministic merge the export and digest use. */
    std::vector<MergedRecord> merged() const;

    /**
     * FNV-1a digest over the merged semantic payload (timestamps,
     * names, ids, values — never wall-clock). Equal digests across
     * thread counts are the tracing determinism contract.
     */
    std::uint64_t digest() const;

    /**
     * Export as Chrome/Perfetto trace_event JSON. @p engine, when
     * given, appends the profiler's wall-clock pipeline-phase spans as
     * an extra "engine" process; @p flows, when given, renders each
     * FlowEvent as an 's'/'t'/'f' flow step so the viewer draws
     * client -> server -> client arrows. @return false on any IO
     * failure.
     */
    bool
    writePerfettoJson(std::FILE *out,
                      const PhaseProfiler *engine = nullptr,
                      const std::vector<FlowEvent> *flows = nullptr) const;
    bool
    writePerfettoJson(const std::string &path,
                      const PhaseProfiler *engine = nullptr,
                      const std::vector<FlowEvent> *flows = nullptr) const;

    const TraceConfig &config() const { return cfg_; }

  private:
    TraceConfig cfg_;
    std::vector<std::unique_ptr<TraceWriter>> writers_;
    std::vector<std::string> labels_;
};

} // namespace apc::obs

#endif // APC_OBS_TRACER_H
