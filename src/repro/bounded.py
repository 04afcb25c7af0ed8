"""Bounded per-process memo tables with hit/miss counters.

The linguistic pipeline and the core intern tables
(:mod:`repro.core.intern`) memoize pure functions of their keys —
labels, words, ``(candidate, sense-inventory)`` pairs.  Their keys come
from documents, and under ``repro serve`` documents are untrusted
input, so every such table needs a hard size bound.

:class:`BoundedTable` is a plain ``dict`` plus a bound: when an insert
would exceed ``maxsize`` the whole table is dropped (counted as
evictions) and refilled from that point on.  That keeps the hit path a
bare ``dict.get`` — hot loops read :attr:`BoundedTable.data` directly —
at the cost of a cold refill after each flush, which a working set
under the bound never pays.  Values are pure functions of their keys,
so a flush can only cost time, never change a result.
"""

from __future__ import annotations

from typing import Any, Hashable

#: Default bound of a memo table (the batch runtime passes its
#: ``cache_size`` instead).
DEFAULT_TABLE_SIZE = 65536


def table_stats(
    size: int, maxsize: int | None, hits: int, misses: int, evictions: int
) -> dict[str, float]:
    """JSON-ready counters, the same shape as ``LRUCache.stats()``."""
    lookups = hits + misses
    return {
        "size": size,
        "maxsize": maxsize,
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
    }


class BoundedTable:
    """A flush-on-full memo ``dict`` with LRU-compatible ``stats()``.

    Parameters
    ----------
    maxsize:
        Largest number of entries kept (``None`` for unbounded).

    Callers read :attr:`data` directly and count their own
    :attr:`hits` / :attr:`misses` (hot loops add them in bulk); all
    writes go through :meth:`put`, which enforces the bound.
    """

    __slots__ = ("data", "maxsize", "hits", "misses", "evictions")

    def __init__(self, maxsize: int | None):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.data: dict = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, key: Hashable, value: Any) -> None:
        """Store one entry, flushing the table first if it is full."""
        data = self.data
        if self.maxsize is not None and len(data) >= self.maxsize:
            self.evictions += len(data)
            data.clear()
        data[key] = value

    def __len__(self) -> int:
        return len(self.data)

    def stats(self) -> dict[str, float]:
        """JSON-ready counters, the same shape as ``LRUCache.stats()``."""
        return table_stats(
            len(self.data), self.maxsize, self.hits, self.misses,
            self.evictions,
        )
