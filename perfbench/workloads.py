"""The three workloads: untraced runs (end-to-end) and traced runs (layers).

``paper-batch``  the exported paper corpus through ``repro batch
                 --workers 2`` in a child process.
``serve-fresh``  ``repro serve`` (defaults) driven open-loop at the
                 ladder's fixed rates with distinct documents.
``serve-repeat`` the same, with ``REPEAT_SHARE`` of each phase resending
                 a document from a hot set smaller than the server's
                 1024-entry document cache.

Every output is checked against the network-walk oracle; a mismatch, a
non-200 response or a timeout counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from pathlib import Path

from inputs import (
    lines_by_name,
    paper_inputs,
    reference_lines,
    serve_inputs,
)
from loadgen import Phase, get_json, percentile, request_bytes, run_phase
from procs import Server, run_cli

# -- serve traffic (also stated in BENCHMARK.json) --------------------------

#: The fixed rate ladder (requests/s): light, loaded, overload.
LADDER = (60.0, 70.0, 250.0)
#: Requests per light/loaded phase (>= 1000 puts >= 10 samples past p99).
PHASE_REQUESTS = 1000
#: Requests in the overload rung; its completion rate is the server's
#: throughput (``docs_per_s`` on the serve workloads).
OVERLOAD_REQUESTS = 500
#: A rung passes when its p99 is within this limit, nothing failed, and
#: the backlog did not grow (achieved rate >= BACKLOG_SHARE x offered).
P99_LIMIT_MS = 250.0
BACKLOG_SHARE = 0.97
#: Closed-loop warm-up requests per server before its measured phase.
WARMUP = 50
#: The rungs take turns in this many slices of their phases.
SEGMENTS = 4
#: serve-repeat: share of requests resending a hot document, hot-set size.
REPEAT_SHARE = 0.5
HOT_SET = 100
#: paper-batch: measurement rounds (at least; more while the CLI batches
#: have measured less than ``--seconds``).
ROUNDS = 4


def max_conns() -> int:
    """At most ``nproc`` connections: the server answers one per
    connection, so this bounds requests in flight from the generator."""
    return max(1, len(os.sched_getaffinity(0)))


class Checker:
    """Counts operations and failures against the reference lines."""

    def __init__(self, reference: dict[str, bytes]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def fail(self, reason: str) -> None:
        """Count one attempted operation that failed."""
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def line(self, name: str, line: bytes) -> None:
        """One produced record line for document ``name``."""
        if self.reference.get(name) != line:
            self.fail("mismatch")
        else:
            self.attempted += 1

    def file(self, path: Path, names: list[str]) -> None:
        """A whole JSONL output: every document once, every line right."""
        try:
            produced = lines_by_name(path)
        except (OSError, ValueError):
            produced = {}
        for name in names:
            self.line(name, produced.get(name, b""))

    def phase(self, phase: Phase, names: list[str]) -> None:
        """Every response of a served phase."""
        for out in phase.outcomes:
            if out.error:
                self.fail(out.error)
            elif out.status != 200:
                self.fail(f"http {out.status}")
            else:
                self.line(names[out.index], out.record_line)


def metric(value: float, unit: str) -> dict:
    """One result-line metric entry."""
    return {"value": value, "unit": unit}


# -- paper-batch ------------------------------------------------------------


def paper_batch(seed: int, seconds: float, work: Path) -> dict:
    """Untraced paper-batch run: ``setup_s``, ``docs_per_s``,
    ``cpu_ms_per_doc`` and ``peak_rss_mb``.

    Each of at least ``ROUNDS`` rounds (more while the batches have
    measured less than ``seconds``) spawns a cold one-document CLI
    process (``setup_s``: import, network load, index build, first
    document, exit) and a whole ``repro batch --workers 2`` process over
    every document.  Rounds alternate the two so both sample the whole
    run of a host whose speed drifts; each metric is a median.
    """
    inputs = paper_inputs(seed, work)
    names = [name for name, _ in inputs.docs]
    check = Checker(reference_lines(work, names))
    setups, walls, cpus, rss, spawn_rss = [], [], [], [], []
    cli_metrics: dict = {}
    while len(walls) < ROUNDS or sum(walls) < seconds:
        out = work / "setup.jsonl"
        run = run_cli(
            ["batch", names[0], "--workers", "2", "--out", str(out)],
            cwd=work,
        )
        setups.append(run.wall_s)
        spawn_rss.append(run.parent_rss_mb)
        check.file(out, names[:1])

        out = work / "batch.jsonl"
        metrics_json = work / "metrics.json"
        run = run_cli(
            ["batch", "c*/*/*.xml", "--workers", "2", "--out", str(out),
             "--metrics-json", str(metrics_json)],
            cwd=work,
        )
        if run.code != 0:
            check.fail(f"repro batch exited {run.code}")
        check.file(out, names)
        walls.append(run.wall_s)
        cpus.append(run.cpu_s)
        rss.append(run.maxrss_mb)
        spawn_rss.append(run.parent_rss_mb)
        cli_metrics = _read_json(metrics_json)

    n = len(inputs.docs)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "docs_per_s": metric(n / statistics.median(walls), "1/s"),
        "cpu_ms_per_doc": metric(
            statistics.median(cpus) * 1000.0 / n, "ms"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }
    counters = cli_metrics.get("counters", {})
    detail = {
        "inputs": inputs.describe(),
        "cli_wall_s": [round(w, 4) for w in walls],
        "setup_s": [round(s, 4) for s in setups],
        "cli_counters_workers2": {
            k: counters.get(k) for k in (
                "memo_hits", "memo_misses", "memo_evictions",
                "candidates_evaluated", "candidates_pruned")
        },
        "cli_shm_bytes": cli_metrics.get("gauges", {}).get("shm_bytes"),
        "parent_rss_at_spawn_mb": max(spawn_rss),
    }
    return {"check": check, "metrics": metrics, "detail": detail}


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


# -- serve-fresh / serve-repeat ----------------------------------------------


def request_plan(fresh: list[int], n: int, repeat: bool,
                 rng: random.Random) -> tuple[list[int], int]:
    """Document indices for ``n`` requests and how many are repeats.

    Without ``repeat`` every request sends the next unsent document.
    With it, each request after the first resends, with probability
    ``REPEAT_SHARE``, a document already sent from the first
    ``HOT_SET`` fresh ones.
    """
    plan: list[int] = []
    sent = 0
    repeats = 0
    for _ in range(n):
        if repeat and sent and rng.random() < REPEAT_SHARE:
            plan.append(fresh[rng.randrange(min(sent, HOT_SET))])
            repeats += 1
        else:
            plan.append(fresh[sent])
            sent += 1
    return plan, repeats


def payloads_for(docs, plan: list[int],
                 tag: str) -> tuple[list[bytes], list[str]]:
    """Request bytes and document names for ``plan``; request ids are
    ``tag`` plus the position in the plan."""
    names = [docs[i][0] for i in plan]
    payloads = [
        request_bytes(docs[i][0], docs[i][1], f"{tag}{k}")
        for k, i in enumerate(plan)
    ]
    return payloads, names


def closed_loop(address, payloads) -> Phase:
    """All requests due at once: ``max_conns`` back-to-back streams."""
    return run_phase(address, payloads, 1e9, max_conns())


def _rung_summary(rate: float, segments: list[Phase]) -> dict:
    """Latency, achieved rate and the pass tests of one ladder rung."""
    outcomes = [o for phase in segments for o in phase.outcomes]
    busy = sum(
        max(o.finished for o in phase.outcomes) - phase.t0
        for phase in segments
    )
    achieved = len(outcomes) / busy
    latencies = [o.latency_ms for o in outcomes]
    failures = sum(1 for o in outcomes if o.error or o.status != 200)
    p99 = percentile(latencies, 99)
    backlog_ok = achieved >= BACKLOG_SHARE * rate
    return {
        "offered_rps": rate,
        "achieved_rps": achieved,
        "requests": len(outcomes),
        "segments": len(segments),
        "failures": failures,
        "p50_ms": percentile(latencies, 50),
        "p99_ms": p99,
        "lateness_p99_ms": percentile(
            [o.lateness_ms for o in outcomes], 99),
        "segment_p50_ms": [
            percentile([o.latency_ms for o in ph.outcomes], 50)
            for ph in segments
        ],
        "segment_p99_ms": [
            percentile([o.latency_ms for o in ph.outcomes], 99)
            for ph in segments
        ],
        "backlog_ok": backlog_ok,
        "passed": p99 <= P99_LIMIT_MS and failures == 0 and backlog_ok,
    }


def _warm(server: Server, payloads: list[bytes], names: list[str],
          check: Checker) -> float:
    """Warm a fresh server closed-loop; returns its setup time (spawn
    to the first answered request)."""
    first = closed_loop(server.address, payloads[:1])
    check.phase(first, names[:1])
    check.phase(closed_loop(server.address, payloads[1:]), names[1:])
    return first.outcomes[0].finished - server.started


def serve(seed: int, work: Path, repeat: bool) -> dict:
    """Untraced serve run over the ladder: every end-to-end metric.

    Each rung gets its own server, and the rungs take turns in
    ``SEGMENTS`` slices, so every rung samples the whole run rather
    than one stretch of a host whose speed drifts.
    """
    inputs = serve_inputs(seed, work)
    docs = inputs.docs
    check = Checker(reference_lines(work, [n for n, _ in inputs.docs]))
    order = list(range(len(docs)))
    random.Random(seed).shuffle(order)
    warm, fresh = order[:WARMUP], order[WARMUP:]
    warm_payloads, warm_names = payloads_for(docs, warm, "w")
    sizes = (PHASE_REQUESTS, PHASE_REQUESTS, OVERLOAD_REQUESTS)
    plans, payloads, names, repeats = [], [], [], []
    for k, n in enumerate(sizes):
        plan, n_repeats = request_plan(
            fresh, n, repeat, random.Random(f"{seed}:{k}"))
        rung_payloads, rung_names = payloads_for(docs, plan, f"r{k}-")
        plans.append(plan)
        payloads.append(rung_payloads)
        names.append(rung_names)
        repeats.append(n_repeats)

    segments: list[list[Phase]] = [[] for _ in LADDER]
    setups, snapshots = [], []
    servers: list[Server] = []
    try:
        for _ in LADDER:
            servers.append(Server(work))
            setups.append(_warm(servers[-1], warm_payloads, warm_names,
                                check))
        for s in range(SEGMENTS):
            for k, rate in enumerate(LADDER):
                step = sizes[k] // SEGMENTS
                part = slice(s * step, (s + 1) * step)
                phase = run_phase(servers[k].address, payloads[k][part],
                                  rate, max_conns())
                check.phase(phase, names[k][part])
                segments[k].append(phase)
        snapshots = [get_json(srv.address, "/metrics") for srv in servers]
    finally:
        usages = [server.stop() for server in servers]

    rungs = []
    for k, rate in enumerate(LADDER):
        summary = _rung_summary(rate, segments[k])
        summary["distinct_documents"] = len(set(plans[k]))
        summary["repeat_share"] = repeats[k] / sizes[k]
        summary["server_counters"] = _server_counters(snapshots[k])
        rungs.append(summary)
    passing = [r for r in rungs if r["passed"]]
    max_rate = max((r["achieved_rps"] for r in passing), default=0.0)
    served = sum(sizes) + len(servers) * len(warm)
    cpu_s = sum(u.cpu_s for u in usages)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "docs_per_s": metric(rungs[2]["achieved_rps"], "1/s"),
        "cpu_ms_per_doc": metric(cpu_s * 1000.0 / served, "ms"),
        "peak_rss_mb": metric(max(u.maxrss_mb for u in usages), "MB"),
        "p50_ms_light": metric(rungs[0]["p50_ms"], "ms"),
        "p99_ms_light": metric(rungs[0]["p99_ms"], "ms"),
        "p50_ms_loaded": metric(rungs[1]["p50_ms"], "ms"),
        "p99_ms_loaded": metric(rungs[1]["p99_ms"], "ms"),
        "max_rate_rps": metric(max_rate, "1/s"),
    }
    detail = {
        "inputs": inputs.describe(),
        "ladder": {
            "rates_rps": list(LADDER),
            "p99_limit_ms": P99_LIMIT_MS,
            "backlog_share": BACKLOG_SHARE,
            "max_conns": max_conns(),
            "rungs": [_round(r) for r in rungs],
        },
        "setup_s": [round(s, 4) for s in setups],
        "server_cpu_s": round(cpu_s, 4),
        "requests_served": served,
        "parent_rss_at_spawn_mb": max(u.parent_rss_mb for u in usages),
    }
    return {"check": check, "metrics": metrics, "detail": detail}


def _server_counters(snapshot: dict) -> dict:
    counters = snapshot.get("counters", {})
    caches = snapshot.get("caches", {})
    out = {k: counters.get(k) for k in (
        "documents_served", "memo_hits", "memo_misses",
        "candidates_evaluated", "candidates_pruned")}
    for name in ("documents", "sphere_memo"):
        if name in caches:
            out[f"cache_{name}"] = caches[name]
    return out


def _round(summary: dict) -> dict:
    return {
        k: (round(v, 4) if isinstance(v, float)
            else [round(x, 4) for x in v] if isinstance(v, list) else v)
        for k, v in summary.items()
    }
