"""Persistent worker-pool runtime: spawn once, serve many batches.

Before this module the :class:`~repro.runtime.executor.BatchExecutor`
created a fresh ``multiprocessing.Pool`` per batch: every batch paid
worker fork + initializer cost (network unpickle, index attach, cold
caches).  :class:`PersistentPool` splits that fixed cost out of the
per-batch path: a long-lived worker pool created once per executor and
reused across batches.  Workers keep their session state (the index
attached from the executor's ``RXPD`` shard path, warm
:class:`~repro.runtime.memo.SphereMemo`, document cache) between
batches, so steady-state batches pay only document payloads across the
process boundary.  A poisoned pool (straggler kill, worker crash,
machinery fault) is terminated and respawned with a bumped
*generation* — the executor's stats merge uses the generation to keep
per-worker counters monotone.

Platforms without ``multiprocessing`` degrade gracefully: ``ensure``
returns ``None`` and the executor's circuit breaker drains the batch
serially, with byte-identical output.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from .metrics import MetricsRegistry


def auto_workers() -> int:
    """The worker count ``--workers auto`` resolves to.

    Prefers ``os.process_cpu_count()`` (Python 3.13+: CPUs usable by
    *this process*), then ``os.sched_getaffinity(0)`` (the affinity
    mask on platforms that pin processes — a container limited to 2 of
    64 cores gets 2, not 64), then ``os.cpu_count()``.  Never less
    than 1.
    """
    process_cpus = getattr(os, "process_cpu_count", None)
    if process_cpus is not None:
        return max(1, process_cpus() or 1)
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # lint: disable=silent-degrade  # platform stubs the syscall; fall through to cpu_count
            pass
    return max(1, os.cpu_count() or 1)


def parse_workers(value: "int | str") -> int:
    """Parse a ``--workers`` value: an integer or the literal ``auto``.

    Returns the integer as-is (range validation stays with the
    consumer — :class:`~repro.runtime.executor.BatchExecutor` and
    ``ServerConfig`` both reject ``< 1`` with their own clean error),
    and raises ``ValueError`` for anything that is neither an integer
    nor ``auto``.
    """
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return auto_workers()
        try:
            return int(text)
        except ValueError:
            raise ValueError(
                f"workers must be an integer or 'auto', got {value!r}"
            ) from None
    return int(value)


def shutdown_pool(pool: Any, terminate: bool = False) -> None:
    """Close (or hard-terminate) a raw pool and reap its workers."""
    if terminate and hasattr(pool, "terminate"):
        pool.terminate()
    else:
        pool.close()
    pool.join()


class PersistentPool:
    """A long-lived ``multiprocessing.Pool`` reused across batches.

    The inner pool is spawned lazily by :meth:`ensure` and survives
    between batches; :meth:`restart` tears a poisoned pool down so the
    next :meth:`ensure` respawns it one *generation* up.  Initializer
    arguments are extended with the generation number so workers can
    tag their counter snapshots (the executor keys its merge
    watermarks on ``(generation, pid)``).

    Observability: ``generation`` counts spawns, ``reuse_count``
    counts batches served on an already-warm pool, ``respawns`` counts
    replacement spawns after a poisoning, all mirrored into the
    metrics registry (``pool_spawns`` / ``pool_reuses`` /
    ``worker_respawns``).
    """

    def __init__(
        self,
        processes: int,
        initializer: Callable[..., None],
        initargs: tuple = (),
        metrics: MetricsRegistry | None = None,
    ):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self.metrics = metrics
        self._pool: Any = None
        self.generation = 0
        self.reuse_count = 0
        self.respawns = 0

    @property
    def alive(self) -> bool:
        """True while an inner pool is spawned and trusted."""
        return self._pool is not None

    def note_batch(self) -> None:
        """Record one batch arriving; a warm pool counts as a reuse."""
        if self._pool is not None:
            self.reuse_count += 1
            if self.metrics is not None:
                self.metrics.count("pool_reuses")

    def ensure(self) -> Any:
        """The live inner pool, spawning one if needed.

        Returns ``None`` (with a ``pool_fault`` event) when the
        platform refuses to create a pool — the executor's circuit
        breaker counts it and eventually drains serially.
        """
        if self._pool is not None:
            return self._pool
        self.generation += 1
        try:
            import multiprocessing

            pool = multiprocessing.Pool(
                processes=self.processes,
                initializer=self._initializer,
                initargs=(*self._initargs, self.generation),
            )
        except (ImportError, OSError, ValueError) as exc:
            if self.metrics is not None:
                self.metrics.event("pool_fault", kind="create", error=str(exc))
            return None
        self._pool = pool
        if self.metrics is not None:
            self.metrics.count("pool_spawns")
        return pool

    def restart(self) -> None:
        """Hard-terminate a poisoned inner pool; ensure() respawns it.

        Worker session state (warm memo, doc cache) dies with the
        workers — correctness never depended on it — while the index
        shard stays on disk, so the respawned generation re-attaches
        the same path instead of re-shipping.
        """
        if self._pool is None:
            return
        shutdown_pool(self._pool, terminate=True)
        self._pool = None
        self.respawns += 1
        if self.metrics is not None:
            self.metrics.count("worker_respawns")

    def close(self, terminate: bool = False) -> None:
        """Shut the inner pool down for good (drain or terminate)."""
        if self._pool is None:
            return
        shutdown_pool(self._pool, terminate=terminate)
        self._pool = None

    def stats(self) -> dict[str, int]:
        """Spawn/reuse counters for bench honesty and health reports."""
        return {
            "workers": self.processes,
            "generation": self.generation,
            "pool_reuse_count": self.reuse_count,
            "worker_respawns": self.respawns,
            "alive": int(self.alive),
        }
