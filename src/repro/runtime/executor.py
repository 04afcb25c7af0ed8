"""Batch disambiguation executor: corpora in, ordered results out.

One `XSDF` call disambiguates one document; production traffic arrives
as corpora.  :class:`BatchExecutor` fans a list of documents across a
``multiprocessing`` worker pool (with a serial fallback used when
``workers <= 1`` or when pools are unavailable, e.g. restricted
sandboxes), sharing one :class:`repro.runtime.index.SemanticIndex` and
one bounded similarity cache per process so repeated taxonomy work is
amortized across documents.

Determinism is a hard contract: results always come back in **input
order**, and because the indexed/cached similarity paths are
bit-identical to the uncached ones, parallel output is byte-identical
to serial output for the same input (the test suite pins this).

The parallel path is a **persistent runtime**
(:mod:`repro.runtime.pool`): workers are spawned once per executor and
reused across batches, keeping their session state (attached index,
warm sphere memo, document cache) between batches, so spin-up cost is
paid once, not per batch.  The semantic index is built **once in the
parent** and reaches every worker as an ``RXPD`` shard *path*: a
shard-attached index ships its own file, a heap-built one is written
once to a temporary shard, and workers memory-map it **zero-copy** —
only document payloads cross the pool boundary.  Within a batch,
chunks flow through a bounded-queue pipeline that overlaps submission
with result collection instead of running submit-all/collect-all
barriers.  ``close()`` (or the GC finalizer) terminates workers and
unlinks the temporary shard.

Failure is a first-class outcome, not an exception.  Every document
comes back with a structured :class:`~repro.runtime.resilience
.DocOutcome` (``ok`` / ``retried`` / ``degraded`` / ``failed`` with the
typed error, attempt count, and stage); transient faults are retried
with exponential backoff; a per-document wall-clock timeout kills and
re-dispatches stragglers; and a circuit breaker trips the pool to the
serial fallback after N consecutive pool-machinery failures — each
transition recorded in the :class:`MetricsRegistry`, never silent.  A
seeded :class:`~repro.runtime.faults.FaultInjector` can be plugged in
to exercise all of these paths deterministically; documents that
succeed under injected faults are bit-identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import weakref
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

from ..core.config import XSDFConfig
from ..core.framework import XSDF
from ..semnet.network import SemanticNetwork
from ..xmltree.errors import XMLError
from .cache import LRUCache
from .faults import FaultInjector, InjectedFault
from .index import SemanticIndex
from .metrics import MetricsRegistry
from .pack import PackedIndex, PackedIndexError
from .pool import PersistentPool, auto_workers
from .store import MmapIndexHandle, write_shard
from .resilience import (
    ON_ERROR_POLICIES,
    STAGE_INDEX,
    STAGE_INJECT,
    STAGE_PARSE,
    STAGE_PIPELINE,
    STAGE_TIMEOUT,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    BatchAbortError,
    CircuitBreaker,
    DocOutcome,
    RetryPolicy,
)

#: Default bound for the per-process pairwise/sense similarity caches.
DEFAULT_CACHE_SIZE = 65536

#: Bound for the per-process document-result cache (full result dicts
#: are larger than similarity floats, so the bound is tighter).
DOC_CACHE_SIZE = 1024

#: Soft cap on the XML payload of one pool chunk.  The default chunk
#: formula only counts documents; when documents are large, a chunk's
#: pickled payload (and the latency of losing its worker) grows with
#: per-document cost, so the adaptive formula also bounds chunk bytes.
TARGET_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class BatchDocument:
    """One unit of batch work: a named XML text."""

    name: str
    xml: str


@dataclass
class BatchRecord:
    """The outcome of disambiguating one batch document.

    ``result`` is the JSON-ready ``DisambiguationResult.to_dict()``
    payload on success and ``None`` on failure, with ``error`` carrying
    the exception text (one bad document must not sink the batch).
    ``elapsed_s``, ``worker_stats`` (the producing worker's cumulative
    memo/prune/degrade counter snapshot, parallel runs only) and
    ``outcome`` (the structured :class:`DocOutcome`) are
    observability-only and deliberately excluded from the JSONL
    rendering, which must be byte-identical between serial and parallel
    (and cached and uncached, faulted and fault-free) runs of the same
    input.
    """

    name: str
    result: dict | None
    error: str | None
    elapsed_s: float
    worker_stats: dict | None = None
    outcome: DocOutcome | None = None

    @property
    def ok(self) -> bool:
        """True when the document disambiguated without an error."""
        return self.error is None

    def to_dict(self) -> dict:
        """JSON-ready rendering (the JSONL payload shape)."""
        return {
            "name": self.name,
            "ok": self.ok,
            "result": self.result,
            "error": self.error,
        }

    def to_json_line(self) -> str:
        """One canonical (sorted-key) JSONL line for this record."""
        return json.dumps(self.to_dict(), sort_keys=True)


# -- worker-process machinery ------------------------------------------------
#
# Module-level state + functions so they are picklable by Pool.  Each
# worker builds its XSDF (and document-result cache) once in the
# initializer; tasks then carry only (name, xml, attempt) payloads.

_WORKER_XSDF: XSDF | None = None
_WORKER_DOC_CACHE: LRUCache | None = None
_WORKER_INJECTOR: FaultInjector | None = None
_WORKER_GENERATION: int = 0


def _init_worker(
    network: SemanticNetwork,
    config: XSDFConfig,
    index: "MmapIndexHandle | SemanticIndex | None",
    cache_size: int | None,
    injector: FaultInjector | None = None,
    generation: int = 0,
) -> None:
    """Install this worker process's XSDF + caches (pool initializer).

    ``index`` arrives pre-built from the parent.  A packed index comes
    as a :class:`~repro.runtime.store.MmapIndexHandle`: the tables
    live in an ``RXPD`` shard file, and this worker memory-maps it by
    path — no payload pickling, no decode, and the pages are shared
    with the parent *and* every other process mapping the same shard.
    The attach verifies the body CRC, so a damaged shard (or the
    ``corrupt-packed`` chaos schedule) degrades this worker to a
    locally built :class:`SemanticIndex` — one rung down the ladder —
    instead of killing the pool, and the degradation is surfaced
    through the worker's stats snapshot.  A dict
    :class:`SemanticIndex` (``packed=False``) arrives pickled.

    ``generation`` is the persistent pool's spawn counter: snapshots
    are tagged with it so the parent's stats merge stays monotone
    across respawns (a recycled pid in a new generation is a new
    worker, not a counter reset).
    """
    # Per-process worker state is the one sanctioned module-global
    # mutation: it is written once per process, before any task runs.
    global _WORKER_XSDF, _WORKER_DOC_CACHE, _WORKER_INJECTOR, _WORKER_GENERATION  # lint: disable=cache-purity
    decode_degraded = False
    if isinstance(index, MmapIndexHandle):
        try:
            index = PackedIndex.from_mmap(index.path, verify=True)
        except (PackedIndexError, OSError, ValueError):  # lint: disable=silent-degrade  # surfaced via degrade_stats snapshot below
            index = SemanticIndex(network)
            decode_degraded = True
    _WORKER_XSDF = _build_xsdf(network, config, index, cache_size)
    if decode_degraded:
        _WORKER_XSDF.degrade_stats["packed_decode"] += 1
    _WORKER_DOC_CACHE = (
        LRUCache(maxsize=DOC_CACHE_SIZE) if index is not None else None
    )
    _WORKER_INJECTOR = injector
    _WORKER_GENERATION = generation


def _run_chunk(
    tasks: list[tuple[str, str, int]]
) -> list[BatchRecord]:
    """Disambiguate one chunk of ``(name, xml, attempt)`` tasks."""
    assert _WORKER_XSDF is not None, "worker pool was not initialized"
    records = []
    for name, xml, attempt in tasks:
        record = _disambiguate_one(
            _WORKER_XSDF, name, xml, _WORKER_DOC_CACHE,
            injector=_WORKER_INJECTOR, attempt=attempt,
        )
        record.worker_stats = _stats_snapshot(_WORKER_XSDF)
        records.append(record)
    return records


def _stats_snapshot(xsdf: XSDF) -> dict:
    """This worker's cumulative memo/prune/degrade counters, pid-tagged.

    Counters are monotone over a worker's lifetime, so the parent can
    recover per-worker totals by taking the elementwise max of the
    snapshots each ``(generation, pid)`` produced, then summing the
    *deltas* since its merge watermarks across workers — workers
    persist across batches, so plain per-batch sums would double-count.
    """
    import os

    stats = {
        "pid": os.getpid(),
        "gen": _WORKER_GENERATION,
        "candidates_evaluated": xsdf.prune_stats["candidates_evaluated"],
        "candidates_pruned": xsdf.prune_stats["candidates_pruned"],
    }
    memo = xsdf.sphere_memo
    if memo is not None:
        memo_stats = memo.stats()
        stats["memo_hits"] = memo_stats["hits"]
        stats["memo_misses"] = memo_stats["misses"]
        stats["memo_evictions"] = memo_stats["evictions"]
    for key, value in xsdf.degrade_stats.items():
        if value:
            stats[f"degrade_{key}"] = value
    # Intern-table traffic (hits/misses are monotone; sizes are not, so
    # they stay worker-local and only the serial path reports them).
    for name, table in xsdf.intern_tables().items():
        table_stats = table.stats()
        stats[f"{name}_hits"] = table_stats["hits"]
        stats[f"{name}_misses"] = table_stats["misses"]
    return stats


def _build_xsdf(
    network: SemanticNetwork,
    config: XSDFConfig,
    index: "PackedIndex | SemanticIndex | None",
    cache_size: int | None,
) -> XSDF:
    pair_cache = LRUCache(maxsize=cache_size) if index is not None else None
    return XSDF(
        network, config,
        index=index,
        similarity_cache=pair_cache,
        intern_size=cache_size,
    )


def _classify_stage(exc: BaseException) -> str:
    """Map an exception to the pipeline stage it indicts."""
    if isinstance(exc, InjectedFault):
        return STAGE_INJECT
    if isinstance(exc, XMLError):
        return STAGE_PARSE
    if isinstance(exc, PackedIndexError):
        return STAGE_INDEX
    return STAGE_PIPELINE


def _disambiguate_one(
    xsdf: XSDF,
    name: str,
    xml: str,
    doc_cache: LRUCache | None,
    injector: FaultInjector | None = None,
    attempt: int = 1,
) -> BatchRecord:
    """Disambiguate one document, serving repeats from the result cache.

    The cache key is the document *text* digest: disambiguation is a
    pure function of (network, config, text), so an identical document
    seen again — the common shape of production traffic — costs one
    hash instead of a full pipeline run.  Injected faults fire *before*
    the cache lookup (they are keyed by document name, the cache by
    text) and are never cached, so a retry re-runs the real pipeline.
    """
    start = time.perf_counter()
    degrade_before = dict(xsdf.degrade_stats)
    result: dict | None = None
    error: str | None = None
    error_type = ""
    stage = ""
    transient = False
    cacheable = doc_cache is not None
    try:
        if injector is not None:
            injector.before_document(name, attempt)
        key = (
            hashlib.sha256(xml.encode("utf-8")).hexdigest()
            if doc_cache is not None else None
        )
        cached = doc_cache.get(key) if key is not None else None
        if cached is not None:
            result, error = cached
            cacheable = False
            if error is not None:
                error_type = error.split(":", 1)[0]
                stage = STAGE_PIPELINE
        else:
            result = xsdf.disambiguate_document(xml).to_dict()
    except (KeyboardInterrupt, SystemExit):
        raise
    except InjectedFault as exc:  # lint: disable=silent-degrade  # surfaced as a DocOutcome by the caller
        error = f"{type(exc).__name__}: {exc}"
        error_type = type(exc).__name__
        stage = STAGE_INJECT
        transient = exc.transient
        cacheable = False  # name-keyed fault, text-keyed cache
        key = None
    except Exception as exc:  # lint: disable=broad-except,silent-degrade  # isolation boundary -> DocOutcome
        error = f"{type(exc).__name__}: {exc}"
        error_type = type(exc).__name__
        stage = _classify_stage(exc)
    if cacheable and key is not None:
        # The document cache is this function's explicit output store,
        # not incidental state: writing it is the point.
        doc_cache[key] = (result, error)  # lint: disable=cache-purity
    degradations = tuple(
        k for k, v in xsdf.degrade_stats.items()
        if v > degrade_before.get(k, 0)
    )
    if error is None:
        status = STATUS_DEGRADED if degradations else STATUS_OK
    else:
        status = STATUS_FAILED
    outcome = DocOutcome(
        name=name,
        status=status,
        attempts=attempt,
        stage=stage,
        error_type=error_type,
        error=error or "",
        transient=transient,
        degradations=degradations,
    )
    return BatchRecord(
        name=name,
        result=result,
        error=error,
        elapsed_s=time.perf_counter() - start,
        outcome=outcome,
    )


def _release_parallel_state(
    pool: PersistentPool | None, temp_shard: str | None
) -> None:
    """Tear down an executor's persistent pool + temporary index shard.

    Registered as a ``weakref.finalize`` callback (so a dropped
    executor cannot leak workers or a ``repro-index-*.rxpd`` file even
    without an explicit ``close()``) and invoked directly by
    :meth:`BatchExecutor.close`.  Module-level on purpose: a finalizer
    must not hold a reference back to the executor it guards.
    """
    if pool is not None:
        pool.close(terminate=True)
    if temp_shard is not None:
        Path(temp_shard).unlink(missing_ok=True)


class BatchExecutor:
    """Disambiguates document batches serially or across a worker pool.

    Parameters
    ----------
    network:
        The reference semantic network (shared by every document).
    config:
        Pipeline parameters (defaults follow the paper).
    workers:
        Process count; ``<= 1`` runs serially in-process.  Counts
        above the host's *usable* CPUs (``auto_workers()``: affinity
        mask aware) are clamped unless ``oversubscribe=True`` — on a
        1-CPU host ``workers=2`` would pay fork + IPC + context
        switching for zero parallelism, so the executor serves such
        batches serially instead (output is identical; a
        ``workers_clamped`` event records the decision).  Pool
        creation failures (platforms without working
        ``multiprocessing``) and mid-batch pool-machinery failures
        (worker crashes, pickling errors) are counted by the circuit
        breaker and, once it trips, drain the rest of the batch on the
        serial path — output is identical either way, and every
        transition is recorded in the metrics registry.
    chunk_size:
        Documents per pool task; ``None`` picks ``ceil(n / (4 *
        workers))`` — large enough to amortize dispatch, small enough to
        load-balance.  Forced to 1 while ``doc_timeout`` is set so the
        timeout has per-document granularity.
    use_index:
        Build a semantic index + bounded LRU similarity cache (on by
        default — this is the runtime's raison d'être; disable to
        measure the uncached baseline).  The index is built once in the
        parent and shared: the serial path uses it directly, the
        parallel path ships it to every worker.
    packed:
        Use the interned flat-array :class:`PackedIndex` (default) —
        faster kernels, shipped to workers as an ``RXPD`` shard path.
        ``packed=False`` keeps the dict-keyed :class:`SemanticIndex`
        (the PR 1 runtime, retained for benchmarking and fallback).
        Scores are bit-identical either way.  Ignored when
        ``use_index`` is False.
    cache_size:
        Bound for the pairwise-similarity LRU (``None`` = unbounded).
    metrics:
        Optional :class:`MetricsRegistry`.  The serial path threads it
        through :class:`XSDF` for full per-stage latency; the parallel
        path records batch-level counters/timers plus the merged
        per-worker memo/prune/degrade counters — other worker-process
        internals are not merged back.  Resilience counters
        (``outcome_*``, ``retries``, ``doc_timeouts``,
        ``breaker_trips``) and structured events (``fault``,
        ``doc_failed``, ``doc_timeout``, ``pool_fault``,
        ``breaker_tripped``) land here too.
    max_retries:
        Re-dispatch budget for *transient* faults per document (a
        document runs at most ``max_retries + 1`` times).  Permanent
        errors (parse failures, deterministic pipeline bugs) are never
        retried.
    doc_timeout:
        Per-document wall-clock budget in seconds (parallel path only;
        the serial path cannot kill a straggler in-process).  A chunk
        that exceeds it has its pool terminated and its documents
        re-dispatched with a bumped attempt count, becoming ``failed``
        with ``stage="timeout"`` once retries are exhausted.
    backoff_base:
        First retry delay; doubles per attempt, capped at 2 s.  Pass
        ``0.0`` (tests do) to retry instantly.
    breaker_threshold:
        Consecutive pool-machinery failures before the circuit breaker
        trips to the serial fallback.
    on_error:
        ``"skip"`` (default) records failures and carries on;
        ``"fail"`` raises :class:`BatchAbortError` (carrying the
        records so far) at the first final failure; ``"quarantine"``
        behaves like ``skip`` — routing failed records to a sidecar is
        the CLI's job.
    injector:
        Optional :class:`FaultInjector`; its schedules fire in the
        parent's serial path and in every worker (it ships through the
        pool initializer), and may corrupt the temporary index shard
        workers attach.
    index:
        Optional pre-built :class:`PackedIndex` / :class:`SemanticIndex`
        over ``network``.  Long-lived callers (the ``repro serve``
        session pool) build the index once and share it across many
        executors — per-configuration caches stay private while the
        heavyweight taxonomy tables are never rebuilt.  Ignored when
        ``use_index`` is False.
    oversubscribe:
        Run the requested ``workers`` even beyond the usable-CPU count
        (default False).  The pool-lifecycle tests, the chaos gate,
        and the bench's honesty measurements use this to exercise the
        real pool machinery on single-CPU hosts.
    record_hook:
        Optional callable invoked in the parent with each *final*
        :class:`BatchRecord` as it completes, on every dispatch path
        (serial, parallel, timeout-exhausted).  The batch journal's
        append point; hook exceptions propagate and abort the batch.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        config: XSDFConfig | None = None,
        workers: int = 1,
        chunk_size: int | None = None,
        use_index: bool = True,
        packed: bool = True,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
        metrics: MetricsRegistry | None = None,
        max_retries: int = 2,
        doc_timeout: float | None = None,
        backoff_base: float = 0.05,
        breaker_threshold: int = 3,
        on_error: str = "skip",
        injector: FaultInjector | None = None,
        index: "PackedIndex | SemanticIndex | None" = None,
        oversubscribe: bool = False,
        record_hook: "Callable[[BatchRecord], None] | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if cache_size is not None and cache_size < 1:
            raise ValueError("cache_size must be >= 1 (or None for unbounded)")
        if doc_timeout is not None and doc_timeout <= 0:
            raise ValueError("doc_timeout must be > 0 (or None for no limit)")
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
            )
        self.network = network
        self.config = config or XSDFConfig()
        self.workers = workers
        self.oversubscribe = oversubscribe
        self.chunk_size = chunk_size
        self.use_index = use_index
        self.packed = packed
        self.cache_size = cache_size
        self.metrics = metrics
        self.retry = RetryPolicy(
            max_retries=max_retries, backoff_base=backoff_base
        )
        self.doc_timeout = doc_timeout
        self.breaker_threshold = breaker_threshold
        self.on_error = on_error
        self.injector = injector
        self.record_hook = record_hook
        self._index: "PackedIndex | SemanticIndex | None" = (
            index if use_index else None
        )
        self._serial_xsdf: XSDF | None = None
        self._doc_cache: LRUCache | None = (
            LRUCache(maxsize=DOC_CACHE_SIZE) if use_index else None
        )
        # Persistent parallel runtime: pool + shipped shard are built
        # once on the first parallel batch and reused until close().
        self._pool: PersistentPool | None = None
        self._temp_shard: str | None = None
        self._shard_bytes = 0
        self._finalizer: "weakref.finalize | None" = None
        self._stat_marks: dict[tuple[int, int], dict[str, float]] = {}

    def _ensure_index(self) -> "PackedIndex | SemanticIndex | None":
        """The shared per-executor index, built lazily exactly once."""
        if not self.use_index:
            return None
        if self._index is None:
            if self.packed:
                self._index = PackedIndex(self.network)
            else:
                self._index = SemanticIndex(self.network)
        return self._index

    @property
    def index(self) -> "PackedIndex | SemanticIndex | None":
        """The executor's shared index, built on first access.

        Exposed so sibling executors (the server's per-configuration
        session pool) can reuse one already-built index via the
        ``index=`` constructor parameter instead of rebuilding it.
        """
        return self._ensure_index()

    def warm(self) -> None:
        """Eagerly build the index and the serial pipeline.

        A resident caller (the ``repro serve`` daemon) pays the whole
        build cost at startup instead of on the first request, and the
        metrics registry sees the cache gauges before any document
        arrives.
        """
        self._serial()

    def close(self) -> None:
        """Release the persistent pool and the temporary index shard.

        Terminates workers and unlinks the ``repro-index-*.rxpd`` file
        this executor wrote (a shard the index was attached from is
        never touched).  Idempotent, and the executor stays usable: the
        serial path is untouched, and a later parallel batch simply
        rewrites the shard and respawns a fresh runtime.  Executors also
        carry a GC finalizer doing the same teardown, so a dropped
        executor cannot leak — ``close()`` just makes it deterministic
        (the server calls it on session eviction and drain).
        """
        finalizer = self._finalizer
        if finalizer is not None:
            finalizer()  # runs _release_parallel_state exactly once
            self._finalizer = None
        self._pool = None
        self._temp_shard = None

    def __enter__(self) -> "BatchExecutor":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: deterministic :meth:`close`."""
        self.close()

    @property
    def effective_workers(self) -> int:
        """The parallelism actually used for a batch.

        The requested ``workers`` clamped to the host's usable-CPU
        count (:func:`~repro.runtime.pool.auto_workers`, affinity-mask
        aware) — oversubscribing processes onto fewer CPUs costs
        fork/IPC/context-switch overhead and can win nothing.  With
        ``oversubscribe=True`` the request is honored verbatim.
        """
        if self.oversubscribe:
            return self.workers
        return min(self.workers, auto_workers())

    def runtime_stats(self) -> dict:
        """Persistent-runtime counters (pool reuse, spawns, shard size).

        The bench honesty fields: ``pool_reuse_count`` proves warm
        batches really reused the pool, ``shard_bytes`` is the size of
        the ``RXPD`` shard workers attached by path (0 until a parallel
        batch ships one), ``shm_bytes`` is always 0 (kept so existing
        consumers of the key keep working; no shared-memory segment
        exists any more), ``generation``/``worker_respawns`` count
        spawns.
        ``intern`` maps each intern table of the in-process (serial)
        pipeline to its ``stats()`` — empty until that pipeline is
        built; pool workers' table traffic reaches the metrics
        registry as merged ``<table>_hits``/``<table>_misses`` counters.
        """
        stats = (
            self._pool.stats() if self._pool is not None
            else {
                "workers": self.effective_workers,
                "generation": 0,
                "pool_reuse_count": 0,
                "worker_respawns": 0,
                "alive": 0,
            }
        )
        stats["shm_bytes"] = 0
        stats["shard_bytes"] = self._shard_bytes
        xsdf = self._serial_xsdf
        stats["intern"] = (
            {} if xsdf is None
            else {
                name: table.stats()
                for name, table in xsdf.intern_tables().items()
            }
        )
        return stats

    # -- public API ----------------------------------------------------------

    def run(
        self, documents: Iterable[BatchDocument | tuple[str, str]]
    ) -> list[BatchRecord]:
        """Disambiguate every document; records come back in input order.

        Under ``on_error="fail"`` a document whose retries are
        exhausted raises :class:`BatchAbortError` (carrying the records
        completed so far); otherwise failures come back as records with
        ``ok=False`` and a structured ``outcome``.
        """
        docs = [
            doc if isinstance(doc, BatchDocument) else BatchDocument(*doc)
            for doc in documents
        ]
        m = self.metrics
        if m is not None:
            m.count("batches")
            m.count("batch_documents", len(docs))
        start = time.perf_counter()
        effective = self.effective_workers
        if m is not None and effective < self.workers:
            m.event(
                "workers_clamped",
                requested=self.workers,
                effective=effective,
            )
        if effective <= 1 or len(docs) <= 1:
            records = self._run_serial(docs)
        else:
            records = self._run_parallel(docs)
        if m is not None:
            m.observe("batch", time.perf_counter() - start)
            m.count("batch_failures", sum(1 for r in records if not r.ok))
        return records

    def run_to_jsonl(
        self,
        documents: Iterable[BatchDocument | tuple[str, str]],
        handle: IO[str],
    ) -> list[BatchRecord]:
        """Run the batch and stream canonical JSONL lines to ``handle``."""
        records = self.run(documents)
        for record in records:
            handle.write(record.to_json_line())
            handle.write("\n")
        return records

    # -- outcome plumbing ----------------------------------------------------

    def _finalize(self, record: BatchRecord, attempt: int) -> BatchRecord:
        """Stamp the final outcome status and emit its metrics."""
        outcome = record.outcome
        if outcome is None:
            outcome = record.outcome = DocOutcome(  # lint: disable=cache-purity  # record is this method's out-param
                name=record.name,
                status=STATUS_OK if record.ok else STATUS_FAILED,
            )
        outcome.attempts = attempt
        if record.ok and attempt > 1:
            outcome.status = STATUS_RETRIED
        m = self.metrics
        if m is not None:
            m.count(f"outcome_{outcome.status}")
            if not record.ok:
                m.event(
                    "doc_failed",
                    doc=outcome.name,
                    error_type=outcome.error_type,
                    stage=outcome.stage,
                    attempts=attempt,
                )
        hook = self.record_hook
        if hook is not None:
            # Runs in the parent, exactly once per final record, on
            # every dispatch path — the journal's append point.  Hook
            # failures (disk full under --journal) propagate: silently
            # dropping durability would defeat the journal's contract.
            hook(record)
        return record

    def _note_retry(self, outcome: DocOutcome, attempt: int) -> None:
        """Record one transient fault that earned a re-dispatch."""
        m = self.metrics
        if m is not None:
            m.count("retries")
            m.event(
                "fault",
                doc=outcome.name,
                error_type=outcome.error_type,
                stage=outcome.stage,
                attempt=attempt,
            )

    def _abort(
        self, record: BatchRecord, results: "list[BatchRecord | None]"
    ) -> BatchAbortError:
        """The ``on_error="fail"`` abort, carrying the records so far."""
        return BatchAbortError(
            f"document {record.name!r} failed: {record.error}",
            [r for r in results if r is not None],
        )

    def _fail_record(
        self, doc: BatchDocument, attempt: int, stage: str, error: str
    ) -> BatchRecord:
        """A synthesized failure record (timeout / pool casualties)."""
        return BatchRecord(
            name=doc.name,
            result=None,
            error=error,
            elapsed_s=0.0,
            outcome=DocOutcome(
                name=doc.name,
                status=STATUS_FAILED,
                attempts=attempt,
                stage=stage,
                error_type=error.split(":", 1)[0],
                error=error,
                transient=True,
            ),
        )

    # -- serial path ---------------------------------------------------------

    def _serial(self) -> XSDF:
        if self._serial_xsdf is None:
            self._serial_xsdf = _build_xsdf(
                self.network, self.config, self._ensure_index(),
                self.cache_size,
            )
            if self.metrics is not None:
                self._serial_xsdf.metrics = self.metrics
                sphere_memo = self._serial_xsdf.sphere_memo
                for name, cache in (
                    ("similarity_pairs", self._serial_xsdf.similarity_cache),
                    ("documents", self._doc_cache),
                    (
                        "sphere_memo",
                        sphere_memo.cache if sphere_memo is not None else None,
                    ),
                ):
                    if isinstance(cache, LRUCache):
                        self.metrics.register_cache(name, cache)
                for name, table in self._serial_xsdf.intern_tables().items():
                    self.metrics.register_cache(name, table)
        return self._serial_xsdf

    def _attempt_serial(
        self, xsdf: XSDF, doc: BatchDocument, first_attempt: int = 1
    ) -> BatchRecord:
        """One document through the serial path, with the retry loop."""
        attempt = first_attempt
        while True:
            record = _disambiguate_one(
                xsdf, doc.name, doc.xml, self._doc_cache,
                injector=self.injector, attempt=attempt,
            )
            outcome = record.outcome
            assert outcome is not None
            if record.ok or not (
                outcome.transient and self.retry.allows(attempt)
            ):
                return self._finalize(record, attempt)
            self._note_retry(outcome, attempt)
            delay = self.retry.delay(attempt)
            if delay > 0:
                time.sleep(delay)
            attempt += 1

    def _run_serial(self, docs: Sequence[BatchDocument]) -> list[BatchRecord]:
        xsdf = self._serial()
        records: list[BatchRecord | None] = []
        for doc in docs:
            record = self._attempt_serial(xsdf, doc)
            records.append(record)
            if self.on_error == "fail" and not record.ok:
                raise self._abort(record, records)
        return [r for r in records if r is not None]

    # -- parallel path -------------------------------------------------------

    def _auto_chunk(self, docs: Sequence[BatchDocument]) -> int:
        """Documents per pool task, adapted to per-document payload.

        Starts from the classic ``ceil(n / (4 * workers))`` (amortize
        dispatch, keep 4 waves per worker for load balancing) and then
        caps the chunk so its XML payload stays near
        :data:`TARGET_CHUNK_BYTES` — for corpora of large documents a
        count-only formula would serialize most of the batch into a
        single task and lose both balance and failure granularity.
        """
        count_chunk = max(1, -(-len(docs) // (4 * self.effective_workers)))
        if count_chunk == 1:
            return 1
        mean_doc_bytes = max(
            1, sum(len(doc.xml) for doc in docs) // len(docs)
        )
        byte_cap = max(1, TARGET_CHUNK_BYTES // mean_doc_bytes)
        return min(count_chunk, byte_cap)

    def _ship_index(self) -> "MmapIndexHandle | SemanticIndex | None":
        """The index ticket shipped to workers (chaos may corrupt it).

        A :class:`PackedIndex` always ships as a tiny
        :class:`~repro.runtime.store.MmapIndexHandle`: workers map the
        ``RXPD`` file by path, sharing pages with the parent and every
        other attaching process.  An index attached from a shard ships
        its own path; a heap-built one is written once to a private
        ``repro-index-*.rxpd`` temp file that this executor owns until
        :meth:`close`, and respawned worker generations re-attach it.
        A ``corrupt-packed`` chaos schedule always writes a temp shard
        and flips a byte in it — never in a shard it did not write —
        so the workers' verified attach fails with a typed error and
        they degrade one ladder rung.  If the temp shard cannot be
        written, a ``pool_fault`` event records it and workers fall
        back to the network walk (same output, no index).
        ``packed=False`` ships the dict index by pickle.
        """
        index = self._ensure_index()
        if not isinstance(index, PackedIndex):
            return index
        injector = self.injector
        corrupting = injector is not None and injector.corrupts_packed
        path = index.shard_path
        if corrupting or path is None or not os.path.isfile(path):
            try:
                fd, path = tempfile.mkstemp(
                    prefix="repro-index-", suffix=".rxpd"
                )
                os.close(fd)
                self._temp_shard = path  # owned from here: close() unlinks
                write_shard(index, path)
                if corrupting:
                    with open(path, "r+b") as fh:
                        payload = injector.corrupt_bytes(fh.read())
                        fh.seek(0)
                        fh.write(payload)
            except OSError as exc:
                if self.metrics is not None:
                    self.metrics.event(
                        "pool_fault", kind="shard_write", error=str(exc)
                    )
                return None
        size = os.path.getsize(path)
        self._shard_bytes = size
        if self.metrics is not None:
            self.metrics.gauge("shard_bytes", size)
        return MmapIndexHandle(path=path, size=size)

    def _runtime(self) -> PersistentPool:
        """This executor's persistent pool runtime, created once.

        The index shard is shipped and the pool object built on the
        first parallel batch; both live until :meth:`close` (or the GC
        finalizer registered here).  Workers themselves are spawned
        lazily by ``PersistentPool.ensure`` and survive across batches
        with their session state (attached index, warm sphere memo,
        document cache) intact.
        """
        if self._pool is None:
            ship = self._ship_index()
            self._pool = PersistentPool(
                processes=self.effective_workers,
                initializer=_init_worker,
                initargs=(
                    self.network, self.config, ship, self.cache_size,
                    self.injector,
                ),
                metrics=self.metrics,
            )
            self._finalizer = weakref.finalize(
                self, _release_parallel_state, self._pool, self._temp_shard
            )
        return self._pool

    def _run_parallel(self, docs: Sequence[BatchDocument]) -> list[BatchRecord]:
        m = self.metrics
        breaker = CircuitBreaker(self.breaker_threshold)
        results: list[BatchRecord | None] = [None] * len(docs)
        pending: list[tuple[int, int]] = [(i, 1) for i in range(len(docs))]
        runtime = self._runtime()
        runtime.note_batch()
        try:
            while pending:
                if breaker.tripped:
                    if m is not None:
                        m.count("breaker_trips")
                        m.event("breaker_tripped", remaining=len(pending))
                    self._drain_serial(docs, pending, results)
                    pending = []
                    break
                pool = runtime.ensure()
                if pool is None:
                    breaker.record_failure()
                    continue
                pending, pool_ok = self._collect_wave(
                    pool, docs, pending, results, breaker
                )
                if not pool_ok:
                    runtime.restart()
                if pending:
                    # Back off before the retry wave (retries only reach
                    # here with attempt >= 2; pool-failure requeues keep
                    # attempt 1 and a zero delay).
                    delay = self.retry.delay(
                        max(att for _, att in pending) - 1
                    )
                    if delay > 0:
                        time.sleep(delay)
        except BaseException:  # lint: disable=broad-except  # teardown boundary: parks the pool then re-raises
            # Satellite contract: KeyboardInterrupt/SystemExit (and the
            # on_error="fail" abort) must not leave workers stuck on
            # in-flight tasks.  The inner pool is hard-terminated; the
            # runtime (and its index shard) stays, so the next batch
            # respawns workers against the same shard path.
            runtime.restart()
            raise
        records = [r for r in results if r is not None]
        assert len(records) == len(docs), "lost a batch document"
        if m is not None:
            self._merge_worker_stats(records)
        return records

    def _pipeline_depth(self) -> int:
        """Chunks kept in flight by the bounded-queue pipeline.

        Two per worker keeps every worker busy while the parent
        disposes the head chunk (submit overlaps collection); the
        floor of 4 keeps small pools pipelined too.  Bounding the
        queue (instead of submitting the whole wave up front) caps
        parent-side memory and lets a straggler or machinery fault
        surface before the tail is serialized.
        """
        return max(4, 2 * self.effective_workers)

    def _collect_wave(
        self,
        pool,
        docs: Sequence[BatchDocument],
        wave: list[tuple[int, int]],
        results: "list[BatchRecord | None]",
        breaker: CircuitBreaker,
    ) -> tuple[list[tuple[int, int]], bool]:
        """Pipeline one wave of ``(doc index, attempt)`` entries.

        The wave runs as a bounded-queue pipeline: up to
        :meth:`_pipeline_depth` chunks are in flight, the head chunk is
        collected (and disposed — finalized or requeued) while later
        chunks execute and the tail is still being submitted.  Returns
        ``(requeue, pool_ok)``: the entries needing another wave, and
        whether the pool survived (a timeout or machinery failure
        poisons it — the caller terminates and respawns via the
        persistent runtime).  On any failure the chunks already in
        flight are salvaged: finished results are kept, unfinished and
        unsubmitted entries are blamelessly requeued at their current
        attempt.
        """
        import multiprocessing

        m = self.metrics
        wave_docs = [docs[i] for i, _ in wave]
        if self.doc_timeout is not None:
            chunk = 1  # per-document timeout needs per-document tasks
        else:
            chunk = self.chunk_size or self._auto_chunk(wave_docs)
        groups = [wave[j:j + chunk] for j in range(0, len(wave), chunk)]
        depth = self._pipeline_depth()
        requeue: list[tuple[int, int]] = []
        inflight: deque[tuple[list[tuple[int, int]], object]] = deque()
        next_up = 0

        def _salvage_rest() -> list[tuple[int, int]]:
            """Harvest in-flight chunks, requeue the unsubmitted tail."""
            extra = self._salvage(
                [group for group, _ in inflight],
                [handle for _, handle in inflight],
                docs, results, requeue, breaker,
            )
            for group in groups[next_up:]:
                extra.extend(group)
            return extra

        while next_up < len(groups) or inflight:
            while next_up < len(groups) and len(inflight) < depth:
                group = groups[next_up]
                try:
                    handle = pool.apply_async(
                        _run_chunk,
                        ([
                            (docs[i].name, docs[i].xml, att)
                            for i, att in group
                        ],),
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:  # lint: disable=broad-except  # pool machinery boundary
                    # Submission failed (pool torn down, pickling
                    # error): this chunk never ran.  Requeue it with
                    # everything unfinished at the same attempt and let
                    # the breaker decide when to stop trusting pools.
                    breaker.record_failure()
                    if m is not None:
                        m.event("pool_fault", kind="submit", error=str(exc))
                    requeue.extend(group)
                    next_up += 1
                    requeue.extend(_salvage_rest())
                    return requeue, False
                inflight.append((group, handle))
                next_up += 1
            group, handle = inflight.popleft()
            timeout = (
                None if self.doc_timeout is None
                else self.doc_timeout * len(group)
            )
            try:
                records = handle.get(timeout)
            except (KeyboardInterrupt, SystemExit):
                raise
            except multiprocessing.TimeoutError:
                breaker.record_failure()
                if m is not None:
                    m.count("doc_timeouts")
                    m.event(
                        "doc_timeout",
                        docs=[docs[i].name for i, _ in group],
                        attempt=group[0][1],
                    )
                requeue.extend(
                    self._requeue_timed_out(group, docs, results)
                )
                requeue.extend(_salvage_rest())
                return requeue, False
            except Exception as exc:  # lint: disable=broad-except  # pool machinery boundary
                breaker.record_failure()
                if m is not None:
                    m.event("pool_fault", kind="collect", error=str(exc))
                requeue.extend(group)
                requeue.extend(_salvage_rest())
                return requeue, False
            else:
                breaker.record_success()
                self._dispose_chunk(group, records, results, requeue)
        return requeue, True

    def _salvage(
        self,
        groups: list[list[tuple[int, int]]],
        handles: list,
        docs: Sequence[BatchDocument],
        results: "list[BatchRecord | None]",
        requeue: list[tuple[int, int]],
        breaker: CircuitBreaker,
    ) -> list[tuple[int, int]]:
        """Harvest already-finished chunks before killing a poisoned pool.

        Ready results are disposed normally; everything still in flight
        is requeued at its current attempt (those documents did nothing
        wrong — the straggler did).
        """
        extra: list[tuple[int, int]] = []
        for group, handle in zip(groups, handles):
            if not handle.ready():
                extra.extend(group)
                continue
            try:
                records = handle.get(0)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # lint: disable=broad-except  # pool machinery boundary
                breaker.record_failure()
                if self.metrics is not None:
                    self.metrics.event(
                        "pool_fault", kind="collect", error=str(exc)
                    )
                extra.extend(group)
                continue
            self._dispose_chunk(group, records, results, requeue)
        return extra

    def _requeue_timed_out(
        self,
        group: list[tuple[int, int]],
        docs: Sequence[BatchDocument],
        results: "list[BatchRecord | None]",
    ) -> list[tuple[int, int]]:
        """Re-dispatch a timed-out chunk, or fail it out of retries."""
        out: list[tuple[int, int]] = []
        for i, attempt in group:
            if self.retry.allows(attempt):
                record = self._fail_record(
                    docs[i], attempt, STAGE_TIMEOUT,
                    f"TimeoutError: exceeded doc_timeout="
                    f"{self.doc_timeout}s",
                )
                assert record.outcome is not None
                self._note_retry(record.outcome, attempt)
                out.append((i, attempt + 1))
            else:
                record = self._finalize(
                    self._fail_record(
                        docs[i], attempt, STAGE_TIMEOUT,
                        f"TimeoutError: exceeded doc_timeout="
                        f"{self.doc_timeout}s after {attempt} attempts",
                    ),
                    attempt,
                )
                results[i] = record  # lint: disable=cache-purity  # results is the wave scheduler's out-param
                if self.on_error == "fail":
                    raise self._abort(record, results)
        return out

    def _dispose_chunk(
        self,
        group: list[tuple[int, int]],
        records: list[BatchRecord],
        results: "list[BatchRecord | None]",
        requeue: list[tuple[int, int]],
    ) -> None:
        """Route one chunk's records: final, retryable, or abort."""
        for (i, attempt), record in zip(group, records):
            outcome = record.outcome
            if (
                not record.ok
                and outcome is not None
                and outcome.transient
                and self.retry.allows(attempt)
            ):
                self._note_retry(outcome, attempt)
                requeue.append((i, attempt + 1))  # lint: disable=cache-purity  # requeue is the wave scheduler's out-param
                continue
            results[i] = self._finalize(record, attempt)  # lint: disable=cache-purity  # results is the wave scheduler's out-param
            if self.on_error == "fail" and not record.ok:
                raise self._abort(record, results)

    def _drain_serial(
        self,
        docs: Sequence[BatchDocument],
        pending: list[tuple[int, int]],
        results: "list[BatchRecord | None]",
    ) -> None:
        """Finish the remaining documents in the parent (breaker open)."""
        xsdf = self._serial()
        for i, attempt in sorted(pending):
            record = self._attempt_serial(xsdf, docs[i], first_attempt=attempt)
            results[i] = record  # lint: disable=cache-purity  # results is the wave scheduler's out-param
            if self.on_error == "fail" and not record.ok:
                raise self._abort(record, results)

    def _merge_worker_stats(self, records: Sequence[BatchRecord]) -> None:
        """Fold worker memo/prune snapshots into the parent's counters.

        Each record carries its worker's *cumulative* counters at
        production time; the per-worker total is the elementwise max of
        that worker's snapshots.  Workers are keyed by ``(generation,
        pid)`` and persist across batches on the warm pool, so what
        lands in the registry is the **delta** above the executor's
        per-worker watermarks from earlier batches — a plain per-batch
        sum of cumulative counters would double-count every reuse.
        """
        per_worker: dict[tuple[int, int], dict[str, float]] = {}
        for record in records:
            stats = record.worker_stats
            if not stats:
                continue
            key = (stats.get("gen", 0), stats["pid"])
            bucket = per_worker.setdefault(key, {})
            for name, value in stats.items():
                if name not in ("pid", "gen") and value > bucket.get(name, 0):
                    bucket[name] = value
        totals: dict[str, float] = {}
        for key, bucket in per_worker.items():
            marks = self._stat_marks.setdefault(key, {})
            for name, value in bucket.items():
                delta = value - marks.get(name, 0)
                if delta > 0:
                    totals[name] = totals.get(name, 0) + delta
                    marks[name] = value
        for name, value in totals.items():
            if value:
                self.metrics.count(name, value)
