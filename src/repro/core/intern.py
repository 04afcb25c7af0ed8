"""Per-XSDF intern tables: one sense inventory per distinct node label.

Document time is spent in per-sphere-member Python over labels that
repeat heavily: every member of every sphere re-derived its sense
inventory, and every (candidate, member) pair re-keyed a best-sense
memo by a tuple of sense-id strings.  Agirre & Rigau's conceptual
density factors the same work per distinct word rather than per
occurrence; this module does the same for XSDF:

* :class:`SenseIntern` maps a node's ``(label, tokens)`` to one shared
  :class:`SenseInventory` holding the label's context sense ids and
  (lazily) its target candidates — a node's inventory depends on
  nothing else, given the network;
* :class:`ScoreRows` keeps, per candidate, a row of best-sense values
  keyed by inventory *identity*, so scoring a sphere costs one
  identity-hashed dict lookup per member.  Sums are still accumulated
  member by member, in sphere order, so every float is bit-identical
  to recomputation.

:class:`SenseTables` bundles them.  The tables belong to one
:class:`~repro.core.framework.XSDF` — hence to one network and one
linguistic configuration — and are bounded by its ``intern_size``.  They never live in module globals: pool workers
build their own XSDF (and with it their own tables) in the pool
initializer, so nothing is shared or snapshotted across processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..bounded import BoundedTable, table_stats
from .candidates import Candidate, candidate_senses, context_sense_ids

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..semnet.network import SemanticNetwork
    from ..xmltree.dom import XMLNode


class SenseInventory:
    """The interned sense inventory of one distinct ``(label, tokens)``.

    ``sense_ids`` are the senses the label contributes as a *context*
    node (:func:`~repro.core.candidates.context_sense_ids`);
    ``candidates`` its senses as a *target*
    (:func:`~repro.core.candidates.candidate_senses`), filled on first
    use.  Instances hash by identity: :class:`ScoreRows` keys on the
    object itself, which is what makes a row lookup cheap.
    """

    __slots__ = ("sense_ids", "candidates")

    def __init__(self, sense_ids: tuple[str, ...]):
        self.sense_ids = sense_ids
        self.candidates: tuple[Candidate, ...] | None = None


class SenseIntern:
    """``(label, tokens)`` -> :class:`SenseInventory`, bounded.

    :attr:`table` is a :class:`~repro.bounded.BoundedTable`; hot loops
    read ``table.data`` directly and call :meth:`intern` on a miss.
    """

    def __init__(self, network: "SemanticNetwork", maxsize: int | None):
        self._network = network
        self.table = BoundedTable(maxsize)

    def intern(self, node: "XMLNode") -> SenseInventory:
        """The node's inventory, building and storing it on a miss."""
        table = self.table
        key = (node.label, node.tokens)
        inventory = table.data.get(key)
        if inventory is not None:
            table.hits += 1
            return inventory
        table.misses += 1
        inventory = SenseInventory(
            tuple(context_sense_ids(node, self._network))
        )
        table.put(key, inventory)
        return inventory

    def candidates(self, node: "XMLNode") -> tuple[Candidate, ...]:
        """The node's target candidates (interned with its inventory)."""
        inventory = self.intern(node)
        candidates = inventory.candidates
        if candidates is None:
            candidates = tuple(candidate_senses(node, self._network))
            inventory.candidates = candidates
        return candidates


class ScoreRows:
    """Per-candidate rows of best-sense values keyed by inventory.

    ``rows[candidate][inventory]`` holds one memoized ``Max_j`` term of
    Definition 8 (or of its upper bound).  The bound applies to the
    total number of entries across all rows; a full table is flushed
    (counted as evictions) before the next insert.  Lookups are read
    straight from :meth:`row` dicts; the caller adds them to
    :attr:`lookups` in bulk, and :meth:`store` counts the misses.
    """

    def __init__(self, maxsize: int | None):
        self.maxsize = maxsize
        self._rows: dict[Candidate, dict[SenseInventory, float]] = {}
        self.entries = 0
        self.lookups = 0
        self.misses = 0
        self.evictions = 0

    def row(self, candidate: Candidate) -> dict[SenseInventory, float]:
        """The (possibly empty) row of ``candidate``."""
        row = self._rows.get(candidate)
        if row is None:
            row = self._rows[candidate] = {}
        return row

    def store(
        self,
        candidate: Candidate,
        row: dict[SenseInventory, float],
        inventory: SenseInventory,
        value: float,
    ) -> None:
        """Record one computed entry (a miss) in ``candidate``'s row."""
        self.misses += 1
        if self.maxsize is not None and self.entries >= self.maxsize:
            self.evictions += self.entries
            for other in self._rows.values():
                other.clear()
            self._rows.clear()
            # The caller still holds `row`; keep it attached (now empty).
            self._rows[candidate] = row
            self.entries = 0
        row[inventory] = value
        self.entries += 1

    def __len__(self) -> int:
        return self.entries

    def stats(self) -> dict[str, float]:
        """JSON-ready counters, the same shape as ``LRUCache.stats()``."""
        return table_stats(
            self.entries, self.maxsize, self.lookups - self.misses,
            self.misses, self.evictions,
        )


class SenseTables:
    """The three tables a concept scorer reads, under one bound.

    :class:`~repro.core.framework.XSDF` owns one instance and hands it
    to every scorer it builds, so the tables survive index downgrades
    (every rung computes identical values).
    """

    def __init__(self, network: "SemanticNetwork", maxsize: int | None):
        self.intern = SenseIntern(network, maxsize)
        self.scores = ScoreRows(maxsize)
        self.bounds = ScoreRows(maxsize)
