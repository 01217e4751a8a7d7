#!/usr/bin/env python3
"""Schema and sanity checks for the JSON files the benches write.

One checker per output kind; each fails (exit 1) on the first broken
expectation and prints a one-line summary when everything holds.

Usage:
    check_bench_json.py powercap   BENCH_powercap.json
    check_bench_json.py simcore    BENCH_simcore.json
    check_bench_json.py fleetscale BENCH_fleetscale.json
    check_bench_json.py churn      BENCH_churn.json
    check_bench_json.py fleet-demo TRACE.json METRICS.csv BLAME.json HEALTH.json
    check_bench_json.py blame      BLAME.json
    check_bench_json.py health     HEALTH.json

`simcore` keeps its speedup target advisory: a geomean below 1.5x
prints a GitHub `::warning` annotation instead of failing, because a
short smoke run on a shared runner is too noisy to hard-fail on.

Exit codes: 0 all checks hold, 1 a check failed (a missing key or an
unreadable file also exits 1, with a traceback), 2 usage error.
"""

from __future__ import annotations

import json
import sys


class CheckFailed(Exception):
    pass


def need(cond, detail) -> None:
    if not cond:
        raise CheckFailed(str(detail))


def load(path: str):
    with open(path) as f:
        return json.load(f)


def check_powercap(path: str) -> None:
    data = load(path)
    need(data["schema_version"] == 4, data.get("schema_version"))
    need(data["points"], "no sweep points recorded")
    for point in data["points"]:
        need(point["rack_budget_w"] > 0, point)
        need(point["tail_dominant"], point)
        need(point["tail_stall_gate_us"] >= 0, point)
        need(point["tail_stall_dvfs_us"] >= 0, point)
        # Health block: fields must be present and sane. Do NOT require
        # alerts > 0 — the smoke window is shorter than the slow burn
        # window, so firing is load-dependent.
        need(point["alerts_fired"] >= 0, point)
        need(point["worst_burn"] >= 0, point)
        need(point["time_in_violation_us"] >= 0, point)
        need(point["audit_violations"] == 0, point)
    breaker = data["breaker"]
    need(breaker["factor"] > 0, breaker)
    need(breaker["duration_ms"] > 0, breaker)
    need(breaker["worst_burn_sli"] in ("latency", "availability", "power"),
         breaker)
    need(breaker["audit_violations"] == 0, breaker)
    print(f"powercap OK: {len(data['points'])} points, breaker "
          f"trip fired {breaker['alerts_fired']} alert(s)")


def check_simcore(path: str) -> None:
    data = load(path)
    need(data["schema_version"] == 4, data.get("schema_version"))
    workloads = [point["workload"] for point in data["queue"]]
    need(workloads == ["timer_churn", "cancel_reschedule", "mixed_horizon"],
         workloads)
    for point in data["queue"]:
        need(point["events_per_sec"] > 0, point)
    need(data["fleet"]["wall_sec"] > 0, data["fleet"])
    geomean = data["speedup_geomean"]
    need(geomean > 0, f"invalid speedup geomean: {geomean}")
    if geomean < 1.5:
        print(f"::warning title=sim-core speedup below target::"
              f"speedup geomean {geomean}x < 1.5x (advisory; smoke "
              f"runs on shared runners are timing-noisy — compare "
              f"BENCH_simcore.json artifacts before acting)")
    print(f"sim-core speedup geomean: {geomean}x")


def check_fleetscale(path: str) -> None:
    data = load(path)
    need(data["schema_version"] == 4, data.get("schema_version"))
    need(data["grid"], "no grid cells recorded")
    for cell in data["grid"]:
        need(cell["events_per_sec"] > 0, cell)
        need(cell["wall_sec"] > 0, cell)
        need(cell["num_shards"] > 0, cell)
        need(cell["advance_sec"] >= 0, cell)
        need(cell["shard_imbalance"] >= 1.0, cell)
    need(data["deterministic_across_grid"] is True,
         "reports not byte-identical across the grid")
    best = max(data["grid"], key=lambda c: c["events_per_sec"])
    print(f"fleet-scale OK: {len(data['grid'])} cells with byte-identical "
          f"reports; best {best['servers']} servers x {best['threads']} "
          f"threads -> {best['events_per_sec']:.0f} events/s")


def check_churn(path: str) -> None:
    data = load(path)
    need(data["schema_version"] == 4, data.get("schema_version"))
    need(data["deterministic_across_layouts"] is True,
         "churn reports not byte-identical across layouts")
    by = {}
    for s in data["scenarios"]:
        need(s["dispatched"] > 0, s)
        need(0.0 <= s["availability"] <= 1.0, s)
        need(s["audit_violations"] == 0, s)
        by.setdefault(s["name"], s)
    need({"baseline", "faults", "faults+recovery"} <= set(by), sorted(by))
    need(by["baseline"]["lost_to_crash"] == 0, by["baseline"])
    need(by["faults"]["lost_to_crash"] > 0,
         "churn scenario destroyed no work")
    rec = by["faults+recovery"]
    need(rec["failovers"] > 0, "recovery never failed over")
    need(rec["availability"] >= by["faults"]["availability"],
         (rec, by["faults"]))
    print(f"churn OK: {by['faults']['lost_to_crash']} crash "
          f"losses -> {rec['failovers']} failovers, "
          f"availability {by['faults']['availability']:.4%} -> "
          f"{rec['availability']:.4%}")


def check_trace(path: str) -> None:
    """Perfetto trace_event shape: complete spans, flow events and the
    request + package power-state vocabulary."""
    events = load(path)["traceEvents"]
    need(events, "empty trace")
    for ev in events:
        need("ph" in ev and "pid" in ev, ev)
        if ev["ph"] != "M":
            need("ts" in ev, ev)
    phases = {ev["ph"] for ev in events}
    need("X" in phases, f"no complete spans: {phases}")
    need({"s", "f"} <= phases, f"no flow events: {phases}")
    names = {ev.get("name") for ev in events}
    need("request" in names, "no request spans traced")
    need("seg_serve" in names, "no segment spans traced")
    need(names & {"PC0", "PC0idle", "ACC1", "PC1A", "PC2", "PC6"},
         "no package power-state spans traced")
    spans = sum(1 for ev in events if ev["ph"] != "M")
    print(f"trace OK: {spans} events, {len(names)} names")


def check_metrics(path: str) -> None:
    with open(path) as f:
        lines = f.read().splitlines()
    need(lines[0] == "t_us,series,entity,value", lines[0])
    need(len(lines) > 1, "no metric samples")
    print(f"metrics OK: {len(lines) - 1} rows")


def check_blame(path: str) -> None:
    """The blame report is exactly additive: per sampled request the
    segment ticks of the critical chain sum to the end-to-end ticks."""
    blame = load(path)
    need(blame["schema_version"] == 1, blame["schema_version"])
    need(blame["requests"] > 0, "no requests attributed")
    need(blame["violations"] == 0, blame["violations"])
    need(blame["segments"], "no segment vocabulary")
    labels = [b["band"] for b in blame["bands"]]
    need(labels == ["p50", "p95", "p99", "p999", "p100"], labels)
    for band in blame["bands"]:
        if band["count"] == 0:
            continue
        total = sum(band["blame_us"].values())
        need(abs(total - band["e2e_mean_us"]) <
             1e-6 * max(1.0, band["e2e_mean_us"]), band)
    need(blame["samples"], "no exact-tick samples")
    for s in blame["samples"]:
        need(sum(s["seg_ticks"].values()) == s["e2e_ticks"], s)
    print(f"blame OK: {blame['requests']} requests, "
          f"{len(blame['samples'])} samples exactly additive")


def check_health(path: str) -> None:
    """Schema-pinned alert log whose audit section must be a clean pass:
    any conservation violation on the demo scenario is a simulator bug,
    not noise."""
    health = load(path)
    need(health["schema_version"] == 1, health["schema_version"])
    need(health["slo"]["latency_threshold_us"] > 0, health["slo"])
    need(len(health["policies"]) >= 2, health["policies"])
    for pol in health["policies"]:
        need(pol["long_us"] > pol["short_us"] > 0, pol)
        need(pol["threshold"] > 0, pol)
        need(pol["severity"] in ("page", "ticket"), pol)
    need(isinstance(health["alerts"], list), health["alerts"])
    for ev in health["alerts"]:
        need(ev["kind"] in ("fire", "resolve"), ev)
        need(ev["sli"] in ("latency", "availability", "power"), ev)
        need(ev["t_us"] >= 0 and ev["burn_long"] >= 0, ev)
    audit = health["audit"]
    need(audit["audits"] > 0, "auditor never ran")
    need(audit["checks"] >= audit["audits"], audit)
    need(audit["violations"] == 0, audit)
    need(set(audit["by_check"]) == {
        "fleet_flights", "fleet_requests", "server_counters",
        "link_conservation", "energy", "budget"}, audit)
    print(f"health OK: {len(health['alerts'])} alert events, "
          f"{audit['audits']} audits x clean")


def check_fleet_demo(trace: str, metrics: str, blame: str,
                     health: str) -> None:
    check_trace(trace)
    check_metrics(metrics)
    check_blame(blame)
    check_health(health)


KINDS = {
    "powercap": (check_powercap, 1),
    "simcore": (check_simcore, 1),
    "fleetscale": (check_fleetscale, 1),
    "churn": (check_churn, 1),
    "fleet-demo": (check_fleet_demo, 4),
    "blame": (check_blame, 1),
    "health": (check_health, 1),
}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in KINDS:
        sys.stderr.write(__doc__)
        return 2
    check, nargs = KINDS[argv[1]]
    paths = argv[2:]
    if len(paths) != nargs:
        sys.stderr.write(f"check_bench_json: {argv[1]} takes {nargs} "
                         f"path(s), got {len(paths)}\n")
        return 2
    try:
        check(*paths)
    except CheckFailed as e:
        sys.stderr.write(f"check_bench_json {argv[1]}: FAILED: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
