"""Cached, parallel, instrumented disambiguation runtime.

The paper's algorithms (:mod:`repro.core`, :mod:`repro.similarity`)
describe *what* to compute; this package makes computing it at corpus
scale cheap and observable without changing a single score:

* :mod:`~repro.runtime.index` — :class:`SemanticIndex`, immutable
  precomputed taxonomy/IC/gloss tables built once per network and
  consumed by the similarity measures via ``index=`` (bit-identical
  fast path);
* :mod:`~repro.runtime.pack` — :class:`PackedIndex`, the same tables
  interned to dense integers and flat arrays with packed similarity
  kernels, serialized in one format (the ``RXPD`` shard);
* :mod:`~repro.runtime.cache` — :class:`LRUCache`, a bounded pairwise
  memo with hit/miss/eviction counters;
* :mod:`~repro.runtime.memo` — :class:`SphereMemo`, a bounded LRU of
  whole disambiguation outcomes keyed by a canonical sphere signature
  (frozen config + network fingerprints, target, ordered members), so
  repeated situations replay bit-identically across documents;
* :mod:`~repro.runtime.executor` — :class:`BatchExecutor`, a
  pipelined multiprocessing fan-out with serial fallback and
  deterministic, input-ordered results; pool workers attach the
  packed index zero-copy from an ``RXPD`` shard path;
* :mod:`~repro.runtime.pool` — :class:`PersistentPool`, the
  long-lived worker runtime (spawn once, serve many batches), plus the
  ``--workers auto`` helpers :func:`auto_workers` /
  :func:`parse_workers`;
* :mod:`~repro.runtime.store` — the on-disk ``RXPD`` shard format
  (:func:`write_shard` / :meth:`PackedIndex.from_mmap`): packed tables
  memory-mapped straight from disk, pages shared across processes
  (pool workers included) via the OS page cache, plus
  :class:`NetworkRegistry`, the
  domain -> (network, shard) manifest with LRU attachment and
  coverage-based cross-network fallback routing;
* :mod:`~repro.runtime.metrics` — :class:`MetricsRegistry`, per-stage
  latency timers, counters, and structured events with JSON report
  export, zero-overhead when off;
* :mod:`~repro.runtime.resilience` — :class:`DocOutcome`,
  :class:`RetryPolicy`, :class:`CircuitBreaker`,
  :class:`BatchAbortError`: per-document fault isolation with bounded
  retry, per-document timeouts, and a breaker-guarded serial fallback;
* :mod:`~repro.runtime.faults` — :class:`FaultInjector` and
  :class:`FaultSpec`, deterministic seeded fault schedules
  (raise-in-worker, slow-worker, corrupt-packed-bytes,
  flaky-then-recover, kill-midbatch, shard bitrot) that exercise every
  recovery path; surviving documents stay bit-identical to a
  fault-free run;
* :mod:`~repro.runtime.journal` — :class:`JournalWriter` /
  :func:`read_journal`, the append-only CRC-framed outcome journal
  (WAL) behind ``repro batch --journal/--resume``: a killed batch
  resumes byte-identically, re-scoring only what never landed;
* :mod:`~repro.runtime.scrubber` — :class:`ShardScrubber`, the
  background integrity scrubber for attached ``RXPD`` shards:
  incremental CRC re-verification, typed damage detection, quarantine
  renames, and optional re-pack repair from the source network.

Typical use::

    from repro.runtime import BatchExecutor, MetricsRegistry

    metrics = MetricsRegistry()
    executor = BatchExecutor(network, config, workers=4, metrics=metrics)
    records = executor.run([(doc.name, doc.xml) for doc in corpus])
    print(metrics.to_json())
"""

from .cache import LRUCache
from .executor import BatchDocument, BatchExecutor, BatchRecord
from .faults import FaultInjector, FaultSpec, InjectedFault
from .index import SemanticIndex
from .journal import (
    JournalError,
    JournalReplay,
    JournalWriter,
    document_digest,
    read_journal,
)
from .memo import SphereMemo, config_fingerprint, sphere_signature
from .metrics import MetricsRegistry, StageTimer, batch_summary
from .pack import (
    PackedIC,
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    PackedIndexTruncatedError,
)
from .pool import PersistentPool, auto_workers, parse_workers
from .resilience import (
    BatchAbortError,
    CircuitBreaker,
    DocOutcome,
    RetryPolicy,
)
from .scrubber import ScrubTarget, ShardScrubber
from .store import (
    MmapIndexHandle,
    NetworkRegistry,
    RegistryEntry,
    RegistryError,
    read_shard_header,
    verify_shard,
    write_shard,
)

__all__ = [
    "BatchAbortError",
    "BatchDocument",
    "BatchExecutor",
    "BatchRecord",
    "CircuitBreaker",
    "DocOutcome",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "JournalError",
    "JournalReplay",
    "JournalWriter",
    "LRUCache",
    "MetricsRegistry",
    "MmapIndexHandle",
    "NetworkRegistry",
    "PackedIC",
    "PackedIndex",
    "PackedIndexCRCError",
    "PackedIndexError",
    "PackedIndexTruncatedError",
    "PersistentPool",
    "RegistryEntry",
    "RegistryError",
    "RetryPolicy",
    "ScrubTarget",
    "SemanticIndex",
    "ShardScrubber",
    "SphereMemo",
    "StageTimer",
    "auto_workers",
    "batch_summary",
    "config_fingerprint",
    "document_digest",
    "parse_workers",
    "read_journal",
    "read_shard_header",
    "sphere_signature",
    "verify_shard",
    "write_shard",
]
