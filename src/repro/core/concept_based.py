"""Concept-based semantic disambiguation (paper Definition 8).

For a target node ``x`` with sphere ``S_d(x)`` and candidate sense
``s_p``::

    Concept_Score(s_p) = (1/|S_d(x)|) * sum over x_i in S_d(x) of
        max over senses s_j of x_i's label of
            Sim(s_p, s_j) * w_V(x_i.label)

i.e. every context node votes with its best-matching sense, its vote
scaled by the node's context-vector weight (structural proximity ×
frequency).  For compound candidates ``(s_p, s_q)`` the similarity is
the average of the per-token similarities (Eq. 10).
"""

from __future__ import annotations

from ..bounded import DEFAULT_TABLE_SIZE
from ..semnet.network import SemanticNetwork
from ..similarity.combined import ConceptSimilarity
from .candidates import Candidate
from .context_vector import context_vector
from .intern import SenseInventory, SenseTables
from .sphere import Sphere

#: The per-sphere context inventory scoring folds over: one
#: ``(interned sense inventory, label weight)`` pair per sphere member
#: that has senses, in member order.
ContextInventory = list[tuple[SenseInventory, float]]


class ConceptBasedScorer:
    """Scores candidate senses against a sphere context (Definition 8).

    The inner ``Max_j Sim(s_p, s_j^i)`` term depends only on the
    candidate and the context node's sense inventory, and the same
    context labels recur across nodes and documents.  ``tables`` (a
    :class:`~repro.core.intern.SenseTables`; a fresh default-bounded
    one when omitted) interns inventories per distinct label and
    memoizes the term in per-candidate rows keyed by inventory identity
    — exact values for scores, upper bounds for pruning.  Memoized
    values are the deterministic max over the identical sense set and
    sums still run member by member, so every score is unchanged.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        similarity: ConceptSimilarity,
        tables: SenseTables | None = None,
    ):
        self._network = network
        self._similarity = similarity
        if tables is None:
            tables = SenseTables(network, DEFAULT_TABLE_SIZE)
        self._intern = tables.intern
        self._score_rows = tables.scores
        self._bound_rows = tables.bounds

    def _candidate_similarity(self, candidate: Candidate, sense_id: str) -> float:
        """``Sim((s_p, s_q), s_j)`` — the average over candidate parts."""
        total = sum(self._similarity(part, sense_id) for part in candidate)
        return total / len(candidate)

    def score(self, candidate: Candidate, sphere: Sphere) -> float:
        """``Concept_Score(candidate, S_d(x), SN-bar)`` in [0, 1]."""
        return self.score_one(
            candidate, self.context_inventory(sphere), len(sphere)
        )

    def context_inventory(
        self,
        sphere: Sphere,
        vector: dict[str, float] | None = None,
    ) -> ContextInventory:
        """The per-member ``(inventory, weight)`` list scoring folds over.

        Built once per sphere (in member order — the accumulation order
        every score follows) and shared between :meth:`score_one`,
        :meth:`upper_bound_one`, and :meth:`score_all`: one intern-table
        lookup per member.  ``vector`` lets callers supply the sphere's
        context vector when they already hold it (it is read, never
        mutated).
        """
        weights = vector if vector is not None else context_vector(sphere)
        intern = self._intern
        table = intern.table
        lookup = table.data.get
        context: ContextInventory = []
        misses = 0
        for member in sphere:
            node = member.node
            inventory = lookup((node.label, node.tokens))
            if inventory is None:
                inventory = intern.intern(node)
                misses += 1
            if inventory.sense_ids:
                context.append((inventory, weights[node.label]))
        table.hits += len(sphere) - misses
        return context

    def score_one(
        self,
        candidate: Candidate,
        context: ContextInventory,
        size: int,
    ) -> float:
        """Exact Definition 8 score over a prebuilt context inventory.

        The accumulation is term-for-term the loop :meth:`score_all`
        runs, so scores are bit-identical whether a candidate is scored
        in a batch or alone (exact pruning depends on this).
        """
        rows = self._score_rows
        row = rows.row(candidate)
        lookup = row.get
        rows.lookups += len(context)
        total = 0.0
        for inventory, label_weight in context:
            best = lookup(inventory)
            if best is None:
                best = max(
                    self._candidate_similarity(candidate, sense_id)
                    for sense_id in inventory.sense_ids
                )
                rows.store(candidate, row, inventory, best)
            total += best * label_weight
        return total / size if size else 0.0

    def upper_bound_one(
        self,
        candidate: Candidate,
        context: ContextInventory,
        size: int,
        upper_bound: ConceptSimilarity,
    ) -> float:
        """Float upper bound on :meth:`score_one` for exact pruning.

        Mirrors :meth:`score_one`'s accumulation with every pairwise
        similarity replaced by ``upper_bound`` (a pointwise float
        dominator, e.g. :meth:`repro.similarity.combined
        .CombinedSimilarity.upper_bound`).  Because IEEE rounding is
        monotone and the op sequence is identical, the result dominates
        the exact score in float arithmetic — no epsilon needed.
        """
        rows = self._bound_rows
        row = rows.row(candidate)
        lookup = row.get
        rows.lookups += len(context)
        total = 0.0
        for inventory, label_weight in context:
            best = lookup(inventory)
            if best is None:
                best = max(
                    sum(upper_bound(part, sense_id) for part in candidate)
                    / len(candidate)
                    for sense_id in inventory.sense_ids
                )
                rows.store(candidate, row, inventory, best)
            total += best * label_weight
        return total / size if size else 0.0

    def score_all(
        self,
        candidates: list[Candidate],
        sphere: Sphere,
        vector: dict[str, float] | None = None,
    ) -> dict[Candidate, float]:
        """Scores for every candidate against one (shared) sphere.

        Computes the context vector and per-node sense inventories once,
        which matters because real documents evaluate dozens of
        candidates against the same context.  Callers that already hold
        the sphere's context vector pass it as ``vector`` (it is read,
        never mutated) so it is not re-derived per scorer.
        """
        context = self.context_inventory(sphere, vector)
        size = len(sphere)
        return {
            candidate: self.score_one(candidate, context, size)
            for candidate in candidates
        }
