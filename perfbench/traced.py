"""Traced runs: per-layer metrics from spans (``--trace 1``).

Each traced run is separate from the untraced end-to-end runs and hosts
the system in-process so the span wrappers see it:

``paper-batch``  serially, one ``BatchExecutor.run`` per document
                 (spans inside pool workers would not come back).  The
                 pool's own numbers come from ``runtime_stats()`` of a
                 short two-worker batch.
``serve-*``      ``ServerApp``/``ReproServer`` on an event-loop thread,
                 driven open-loop at the light rate by the same
                 generator as the untraced run.

``trace.overhead_ratio`` is traced ÷ untraced documents per second on
the same documents: serial passes for paper-batch, closed-loop bursts
against fresh in-process servers for serve.  Memo and prune counters
come from the serial traced run, because their counts differ between
``--workers 1`` and ``--workers 2`` on identical output.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from pathlib import Path

from inputs import paper_inputs, reference_lines, serve_inputs
from loadgen import get_json, percentile, run_phase
from tracing import Tracer
from workloads import (
    LADDER,
    WARMUP,
    Checker,
    closed_loop,
    max_conns,
    metric,
    payloads_for,
    request_plan,
)

TRACE_DIR = Path(__file__).resolve().parent / "traces"
#: serve: requests in the traced open-loop phase / the closed-loop bursts.
TRACED_REQUESTS = 400
BURST_REQUESTS = 300


def run(workload: str, seed: int, work: Path) -> dict:
    """Dispatch one traced run; returns check, metrics and detail."""
    if workload == "paper-batch":
        return _paper(seed, work)
    return _serve(seed, work, repeat=workload == "serve-repeat")


def _write_trace(tracer: Tracer, workload: str) -> dict:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}.tsv.gz"
    spans = tracer.write(path)
    return {"spans": spans, "file": str(path.relative_to(
        Path(__file__).resolve().parent.parent))}


# -- paper-batch ------------------------------------------------------------


def executor(workers: int, metrics=None):
    """A ``BatchExecutor`` with the CLI's defaults."""
    from repro.core.config import XSDFConfig
    from repro.runtime.executor import DEFAULT_CACHE_SIZE, BatchExecutor
    from repro.semnet import default_lexicon

    return BatchExecutor(
        default_lexicon(), XSDFConfig(), workers=workers,
        cache_size=DEFAULT_CACHE_SIZE, metrics=metrics,
    )


def _serial_pass(docs, check: Checker, tracer: Tracer | None):
    from repro.runtime.metrics import MetricsRegistry

    registry = MetricsRegistry()
    runner = executor(1, metrics=registry)
    runner.warm()
    if tracer is not None:
        tracer.spans.clear()  # keep only document work
    started = time.perf_counter()
    for doc in docs:
        if tracer is not None:
            tracer.request_id = doc[0]
        record = runner.run([doc])[0]
        check.line(record.name, record.to_json_line().encode())
    elapsed = time.perf_counter() - started
    runner.close()
    return len(docs) / elapsed, registry.snapshot()


def _paper(seed: int, work: Path) -> dict:
    inputs = paper_inputs(seed, work)
    check = Checker(reference_lines(work, [n for n, _ in inputs.docs]))
    untraced_rate, _ = _serial_pass(inputs.docs, check, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced_rate, snapshot = _serial_pass(inputs.docs, check, tracer)
    finally:
        tracer.uninstall()
    pool = executor(2)
    try:
        sample = inputs.docs[:8]
        for record in pool.run(sample):
            check.line(record.name, record.to_json_line().encode())
        pool_stats = pool.runtime_stats()
        effective = pool.effective_workers
    finally:
        pool.close()
    counters = snapshot.get("counters", {})
    metrics = layer_metrics(
        tracer, len(inputs.docs), lambda rid: True,
        memo_hits=counters.get("memo_hits", 0.0),
        memo_misses=counters.get("memo_misses", 0.0),
        effective_workers=effective,
        shipped_bytes=pool_stats["shm_bytes"] + pool_stats["shard_bytes"],
        overhead_ratio=traced_rate / untraced_rate,
    )
    detail = {
        "inputs": inputs.describe(),
        "untraced_docs_per_s": round(untraced_rate, 3),
        "traced_docs_per_s": round(traced_rate, 3),
        "serial_counters_workers1": {
            k: counters.get(k) for k in (
                "memo_hits", "memo_misses", "candidates_evaluated",
                "candidates_pruned")
        },
        "pool": {"effective_workers": effective, **pool_stats},
        "note": "memo/prune counters differ between --workers 1 and "
                "--workers 2 on identical output; ratios here come from "
                "the serial traced run",
        "trace": _write_trace(tracer, "paper-batch"),
    }
    return {"check": check, "metrics": metrics, "detail": detail}


# -- serve ------------------------------------------------------------------


class InProcessServer:
    """``ReproServer`` (default settings, ephemeral port) on a thread."""

    def __init__(self):
        from repro.semnet import default_lexicon
        from repro.server import ReproServer, ServerApp, ServerConfig

        self.app = ServerApp(
            default_lexicon(), server_config=ServerConfig(port=0)
        )
        self.server = ReproServer(self.app)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self.thread = threading.Thread(target=self._main, daemon=True)
        self.thread.start()
        self._ready.wait(120)
        if self._error is not None or not self._ready.is_set():
            self.stop()
            raise SystemExit(f"in-process server failed: {self._error}")
        self.address = self.server.address

    def _main(self) -> None:
        async def serve() -> None:
            try:
                await self.server.start()
            finally:
                self._ready.set()
            await self.server.run_until_drained()

        try:
            self.loop.run_until_complete(serve())
        except Exception as exc:  # lint: disable=broad-except  # boundary
            self._error = exc
            self._ready.set()
        finally:
            self.loop.close()

    def stop(self) -> None:
        """Graceful drain, then join the loop thread."""
        if not self.loop.is_closed():
            self.loop.call_soon_threadsafe(self.server.request_drain)
        self.thread.join(60)


def _serve(seed: int, work: Path, repeat: bool) -> dict:
    inputs = serve_inputs(seed, work)
    docs = inputs.docs
    check = Checker(reference_lines(work, [n for n, _ in inputs.docs]))
    order = list(range(len(docs)))
    random.Random(seed).shuffle(order)
    warm, fresh = order[:WARMUP], order[WARMUP:]
    warm_payloads, warm_names = payloads_for(docs, warm, "w")
    burst_plan, _ = request_plan(
        fresh, BURST_REQUESTS, repeat, random.Random(f"{seed}:burst"))
    plan, repeats = request_plan(
        fresh, TRACED_REQUESTS, repeat, random.Random(f"{seed}:trace"))

    def burst(tag: str) -> float:
        server = InProcessServer()
        try:
            check.phase(closed_loop(server.address, warm_payloads),
                        warm_names)
            payloads, names = payloads_for(docs, burst_plan, tag)
            phase = closed_loop(server.address, payloads)
            check.phase(phase, names)
        finally:
            server.stop()
        return len(payloads) / (phase.t_end - phase.t0)

    untraced_rate = burst("u")
    tracer = Tracer()
    tracer.install()
    try:
        traced_rate = burst("b")
        server = InProcessServer()
        try:
            check.phase(closed_loop(server.address, warm_payloads),
                        warm_names)
            payloads, names = payloads_for(docs, plan, "m")
            phase = run_phase(server.address, payloads, LADDER[0],
                              max_conns())
            check.phase(phase, names)
            snapshot = get_json(server.address, "/metrics")
            session = server.app.session_for(server.app.config)
            pool_stats = session.runtime_stats()
            effective = session.effective_workers
        finally:
            server.stop()
    finally:
        tracer.uninstall()
    counters = snapshot.get("counters", {})

    def measured(rid) -> bool:
        return bool(rid) and rid.startswith("m")

    scored = sum(
        1 for span in tracer.spans
        if span[0] == "server.score" and measured(span[4])
    )
    metrics = layer_metrics(
        tracer, scored, measured,
        memo_hits=counters.get("memo_hits", 0.0),
        memo_misses=counters.get("memo_misses", 0.0),
        effective_workers=effective,
        shipped_bytes=pool_stats["shm_bytes"] + pool_stats["shard_bytes"],
        overhead_ratio=traced_rate / untraced_rate,
    )
    detail = {
        "inputs": inputs.describe(),
        "traced_phase": {
            "rate_rps": LADDER[0],
            "requests": len(plan),
            "distinct_documents": len(set(plan)),
            "repeat_share": repeats / len(plan),
            "lateness_p99_ms": round(percentile(
                [o.lateness_ms for o in phase.outcomes], 99), 3),
        },
        "untraced_burst_docs_per_s": round(untraced_rate, 3),
        "traced_burst_docs_per_s": round(traced_rate, 3),
        "server_counters": {
            k: counters.get(k) for k in (
                "documents_served", "memo_hits", "memo_misses",
                "candidates_evaluated", "candidates_pruned")
        },
        "server_caches": snapshot.get("caches", {}),
        "trace": _write_trace(tracer, "serve-repeat" if repeat
                              else "serve-fresh"),
    }
    return {"check": check, "metrics": metrics, "detail": detail}


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(tracer: Tracer, docs: int, measured, *, memo_hits: float,
                  memo_misses: float, effective_workers: int,
                  shipped_bytes: int, overhead_ratio: float) -> dict:
    """Every per-layer metric from the spans of measured requests."""
    agg = tracer.aggregate(lambda span: measured(span[4]))
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": []}

    def get(name: str) -> dict:
        return agg.get(name, empty)

    def ms_per_doc(name: str) -> float:
        return get(name)["self_s"] * 1000.0 / docs

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    parse = get("xmltree.parse")
    label = get("linguistics.label")
    targets = sum(get("core.select")["extra"])
    candidates = get("core.candidates")
    sphere = get("core.sphere")
    document = get("core.document")
    server = _server_latency(tracer, measured)
    m = {
        "xmltree.parse_ms_per_doc": (ms_per_doc("xmltree.parse"), "ms"),
        "xmltree.build_tree_ms_per_doc": (
            ms_per_doc("xmltree.build_tree"), "ms"),
        "xmltree.parse_mb_per_s": (
            ratio(sum(parse["extra"]) / 1e6, parse["self_s"]), "MB/s"),
        "linguistics.label_ms_per_doc": (
            ms_per_doc("linguistics.label"), "ms"),
        "linguistics.calls_per_doc": (label["calls"] / docs, "count"),
        "linguistics.distinct_ratio": (
            ratio(len(set(label["extra"])), label["calls"]), "ratio"),
        "core.select_ms_per_doc": (ms_per_doc("core.select"), "ms"),
        "core.ambiguity_calls_per_target": (
            ratio(get("core.ambiguity")["calls"], targets), "count"),
        "core.candidates_per_target": (
            ratio(sum(candidates["extra"]), candidates["calls"]), "count"),
        "core.sphere_ms_per_doc": (ms_per_doc("core.sphere"), "ms"),
        "core.sphere_members_mean": (
            ratio(sum(sphere["extra"]), sphere["calls"]), "count"),
        "core.context_vector_ms_per_doc": (
            ms_per_doc("core.context_vector"), "ms"),
        "core.concept_inventory_ms_per_doc": (
            ms_per_doc("core.concept_inventory"), "ms"),
        "core.upper_bound_ms_per_doc": (
            ms_per_doc("core.upper_bound"), "ms"),
        "core.concept_score_ms_per_doc": (
            ms_per_doc("core.concept_score"), "ms"),
        "core.context_score_ms_per_doc": (
            ms_per_doc("core.context_score"), "ms"),
        "core.orchestration_ms_per_doc": (
            ms_per_doc("core.document"), "ms"),
        "core.prune_evaluated_ratio": (
            ratio(get("core.concept_score")["calls"],
                  get("core.upper_bound")["calls"]), "ratio"),
        "similarity.pair_calls_per_doc": (
            get("similarity.pair")["calls"] / docs, "count"),
        "similarity.pair_ms_per_doc": (ms_per_doc("similarity.pair"), "ms"),
        "similarity.bound_ms_per_doc": (
            ms_per_doc("similarity.bound"), "ms"),
        "runtime.memo.signature_ms_per_doc": (
            ms_per_doc("runtime.memo.signature"), "ms"),
        "runtime.memo.put_ms_per_doc": (
            ms_per_doc("runtime.memo.put"), "ms"),
        "runtime.memo.hit_ratio": (
            ratio(memo_hits, memo_hits + memo_misses), "ratio"),
        "runtime.doc_cache.hit_ratio": (
            1.0 - document["calls"] / docs, "ratio"),
        "runtime.executor.overhead_ms_per_doc": (
            ms_per_doc("runtime.executor"), "ms"),
        "runtime.serialize_ms_per_doc": (
            ms_per_doc("runtime.serialize"), "ms"),
        "runtime.pool.effective_workers": (effective_workers, "count"),
        "runtime.pool.shipped_bytes": (shipped_bytes, "bytes"),
        "server.score_ms_p50": (server["score_p50"], "ms"),
        "server.score_ms_p99": (server["score_p99"], "ms"),
        "server.score_wait_ms_p50": (server["wait_p50"], "ms"),
        "server.score_wait_ms_p99": (server["wait_p99"], "ms"),
        "server.overhead_ms_p50": (server["overhead_p50"], "ms"),
        "trace.unattributed_share": (
            ratio(document["self_s"], document["total_s"]), "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in m.items()}


def _server_latency(tracer: Tracer, measured) -> dict:
    """Score, wait-for-the-scoring-thread and handler-overhead times."""
    score = {}
    handle = {}
    for span in tracer.spans:
        if not measured(span[4]):
            continue
        if span[0] == "server.score":
            score[span[4]] = span
        elif span[0] == "server.handle":
            handle[span[4]] = span
    scores, waits, overheads = [], [], []
    for rid, s in score.items():
        scores.append((s[2] - s[1]) * 1000.0)
        h = handle.get(rid)
        if h is not None:
            waits.append((s[1] - h[1]) * 1000.0)
            overheads.append(((h[2] - h[1]) - (s[2] - s[1])) * 1000.0)
    return {
        "score_p50": percentile(scores, 50),
        "score_p99": percentile(scores, 99),
        "wait_p50": percentile(waits, 50),
        "wait_p99": percentile(waits, 99),
        "overhead_p50": percentile(overheads, 50),
    }
