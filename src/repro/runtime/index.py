"""Precomputed semantic-network indexes for the disambiguation runtime.

Knowledge-based WSD spends almost all of its time in repeated taxonomy
walks: hypernym closures, depths, lowest common subsumers, information
content, and gloss token bags are recomputed for the same concepts over
and over (conceptual-density and conceptual-distance methods amortize
exactly these via precomputed taxonomy indexes — Agirre & Rigau).
:class:`SemanticIndex` performs every walk **once** per network and
serves the results from flat dictionaries.

The index is a pure read-through accelerator: the similarity measures
in :mod:`repro.similarity` accept it via an optional ``index=``
parameter and must return **bit-identical** scores with and without it.
To guarantee that, the index stores the very objects the network's own
queries produce (closure dicts in BFS order, depths from the same
root-distance formula, LCS via the same tie-break expression) rather
than re-deriving them with different algorithms.

Build it once per (frozen) network and share it freely — all tables are
treated as immutable after construction::

    index = SemanticIndex(network)
    sim = CombinedSimilarity(network, index=index)
    xsdf = XSDF(network, config, index=index)
"""

from __future__ import annotations

import time

from ..semnet.ic import InformationContent
from ..semnet.network import SemanticNetwork, UnknownConceptError
from ..similarity.gloss import GlossTokenMemo, extended_gloss_tokens


class SemanticIndex:
    """Immutable precomputed lookup tables over one semantic network.

    Parameters
    ----------
    network:
        The network to index.  It must not be mutated afterwards (the
        index holds no invalidation hook — it is a snapshot).
    include_gloss:
        Precompute extended-Lesk gloss token bags (True by default;
        disable for taxonomic-only workloads to save build time).
    ic_smoothing:
        Laplace smoothing for the lazily built information-content
        table, matching :class:`repro.semnet.ic.InformationContent`'s
        default so indexed Lin/Resnik scores equal the uncached ones.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        include_gloss: bool = True,
        ic_smoothing: float = 1.0,
    ):
        start = time.perf_counter()
        self.network = network
        self._ic_smoothing = ic_smoothing
        # Ancestor closures with distances, exactly as the network's BFS
        # produces them (dict insertion order matters for the LCS
        # tie-break below — do not rebuild these with another traversal).
        self._ancestors: dict[str, dict[str, int]] = {}
        for concept in network:
            self._ancestors[concept.id] = network.hypernym_closure(concept.id)
        # Depth table: minimal root distance within the closure — the
        # same formula as SemanticNetwork.depth.
        self._depths: dict[str, int] = {}
        for cid, closure in self._ancestors.items():
            root_distances = [
                dist for ancestor, dist in closure.items()
                if not network.hypernyms(ancestor)
            ]
            self._depths[cid] = min(root_distances) if root_distances else 0
        self.max_taxonomy_depth = max(self._depths.values(), default=1)
        self._lcs_memo: dict[tuple[str, str], str | None] = {}
        self._lcs_memo_hits = 0
        self._lcs_memo_misses = 0
        self._gloss_bags: dict[str, list[str]] | None = None
        if include_gloss:
            # One memo per build: neighbors' glosses are shared between
            # bags, so each gloss is tokenized and stemmed once.
            gloss_memo = GlossTokenMemo()
            self._gloss_bags = {
                concept.id: extended_gloss_tokens(
                    network, concept.id, memo=gloss_memo
                )
                for concept in network
            }
        self._ic: InformationContent | None = None
        self.build_seconds = time.perf_counter() - start

    # -- taxonomy ------------------------------------------------------------

    def hypernym_closure(self, concept_id: str) -> dict[str, int]:
        """Ancestor -> minimal IS-A distance (includes self at 0)."""
        try:
            return self._ancestors[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    def depth(self, concept_id: str) -> int:
        """Minimal number of IS-A edges from a taxonomy root."""
        try:
            return self._depths[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    def lowest_common_subsumer(self, a: str, b: str) -> str | None:
        """Deepest shared IS-A ancestor, memoized per ordered pair.

        Replicates ``SemanticNetwork.lowest_common_subsumer`` exactly —
        the same intersection construction and tie-break key over the
        same closure dicts — so tie decisions are bit-identical.
        """
        key = (a, b)
        try:
            lcs = self._lcs_memo[key]
        except KeyError:
            pass
        else:
            self._lcs_memo_hits += 1
            return lcs
        self._lcs_memo_misses += 1
        closure_a = self.hypernym_closure(a)
        closure_b = self.hypernym_closure(b)
        shared = set(closure_a) & set(closure_b)
        if not shared:
            self._lcs_memo[key] = None
            return None
        depths = self._depths
        lcs = max(
            shared,
            key=lambda cid: (
                depths[cid], -closure_a[cid] - closure_b[cid], cid
            ),
        )
        self._lcs_memo[key] = lcs
        return lcs

    def taxonomic_distance(self, a: str, b: str) -> int | None:
        """Shortest IS-A path length between two concepts (via the LCS)."""
        lcs = self.lowest_common_subsumer(a, b)
        if lcs is None:
            return None
        return self.hypernym_closure(a)[lcs] + self.hypernym_closure(b)[lcs]

    # -- information content -------------------------------------------------

    @property
    def ic(self) -> InformationContent:
        """The network's information-content table (built on first use)."""
        if self._ic is None:
            self._ic = InformationContent(
                self.network, smoothing=self._ic_smoothing
            )
        return self._ic

    # -- gloss bags ----------------------------------------------------------

    def gloss_bag(self, concept_id: str) -> list[str]:
        """Precomputed extended-Lesk token bag of one concept."""
        if self._gloss_bags is None:
            raise RuntimeError(
                "index was built with include_gloss=False; "
                "gloss bags are unavailable"
            )
        try:
            return self._gloss_bags[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, int | float | str]:
        """Size/build statistics for reports and benchmarks.

        Counts are ints, ``build_seconds`` is a float, ``backing`` a
        string; the LCS-memo hit/miss counters make index-layer caching
        observable alongside the runtime's LRU caches.
        """
        return {
            "concepts": len(self._ancestors),
            # Dict tables always live on this process's heap — reported
            # so stats() is shape-compatible with PackedIndex.stats(),
            # whose tables may be mmap-backed.
            "backing": "heap",
            "ancestor_entries": sum(
                len(closure) for closure in self._ancestors.values()
            ),
            "lcs_memo_pairs": len(self._lcs_memo),
            "lcs_memo_hits": self._lcs_memo_hits,
            "lcs_memo_misses": self._lcs_memo_misses,
            "gloss_bags": (
                len(self._gloss_bags) if self._gloss_bags is not None else 0
            ),
            "max_taxonomy_depth": self.max_taxonomy_depth,
            "build_seconds": round(self.build_seconds, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SemanticIndex({self.network.name!r}, "
            f"{len(self._ancestors)} concepts)"
        )
