"""Gloss-based semantic similarity (normalized extended Lesk).

The paper's ``Sim_Gloss`` is "a normalized extension of a typical
gloss-based measure from [Banerjee & Pedersen 2003]": concepts are
similar when their glosses — extended with the glosses of their direct
semantic neighbors — share words.  Overlaps of consecutive words count
quadratically in the original; we score each maximal shared n-gram as
``n^2`` and normalize by the maximum possible overlap of the two
extended glosses, yielding a [0, 1] measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..linguistics.stemmer import stem
from ..semnet.concepts import Concept
from ..semnet.network import SemanticNetwork

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.index import SemanticIndex
    from ..runtime.pack import PackedIndex

    AnyIndex = Union[SemanticIndex, PackedIndex]


def _ngram_overlap_score(tokens_a: list[str], tokens_b: list[str]) -> float:
    """Sum of squared lengths of maximal common phrases (greedy Lesk).

    Repeatedly find the longest common contiguous token sequence, score
    it ``len**2``, remove it from both sides, and repeat — the procedure
    from Banerjee & Pedersen's extended Lesk.
    """
    a = list(tokens_a)
    b = list(tokens_b)
    score = 0.0
    while True:
        best_len = 0
        best_a = best_b = -1
        # Longest common substring over token sequences (DP).
        m, n = len(a), len(b)
        if not m or not n:
            break
        prev = [0] * (n + 1)
        for i in range(1, m + 1):
            row = [0] * (n + 1)
            for j in range(1, n + 1):
                if a[i - 1] == b[j - 1]:
                    row[j] = prev[j - 1] + 1
                    if row[j] > best_len:
                        best_len = row[j]
                        best_a, best_b = i - best_len, j - best_len
            prev = row
        if best_len == 0:
            break
        score += float(best_len * best_len)
        del a[best_a : best_a + best_len]
        del b[best_b : best_b + best_len]
    return score


class GlossTokenMemo:
    """Memoized gloss tokens and stems for one index build or measure.

    Extended glosses overlap heavily — every concept's bag repeats the
    gloss of each neighbor, and gloss words repeat across concepts — so
    without a memo a build re-tokenizes and re-stems the same glosses
    several times per concept.  The owner (a
    :class:`~repro.runtime.index.SemanticIndex` build, or one
    :class:`ExtendedLeskSimilarity`) holds the memo for as long as it
    builds bags; tokens come out identical to the unmemoized path.
    """

    def __init__(self) -> None:
        self._gloss_tokens: dict[str, tuple[str, ...]] = {}
        self._stems: dict[str, str] = {}

    def stem(self, word: str) -> str:
        """The Porter stem of ``word``, memoized."""
        stemmed = self._stems.get(word)
        if stemmed is None:
            stemmed = stem(word)
            self._stems[word] = stemmed
        return stemmed

    def gloss_tokens(self, concept: Concept) -> tuple[str, ...]:
        """``concept.gloss_tokens()``, memoized by concept id."""
        tokens = self._gloss_tokens.get(concept.id)
        if tokens is None:
            tokens = tuple(concept.gloss_tokens(stem=self.stem))
            self._gloss_tokens[concept.id] = tokens
        return tokens


def extended_gloss_tokens(
    network: SemanticNetwork,
    concept_id: str,
    expand: bool = True,
    memo: GlossTokenMemo | None = None,
) -> list[str]:
    """The (optionally neighbor-extended) gloss token bag of one concept.

    Shared between :class:`ExtendedLeskSimilarity` and the precomputed
    :class:`repro.runtime.index.SemanticIndex` gloss bags, so both paths
    score from identical token sequences.  Callers building many bags
    pass one ``memo`` so shared glosses are tokenized once.
    """
    if memo is None:
        memo = GlossTokenMemo()
    concept = network.concept(concept_id)
    tokens = list(memo.gloss_tokens(concept))
    # Synonym words join the extended gloss, stemmed to match the
    # gloss-token conflation (multiword synonyms contribute each part).
    for word in concept.words:
        tokens.extend(memo.stem(part) for part in word.split())
    if expand:
        for neighbor_id in network.neighbors(concept_id):
            tokens.extend(memo.gloss_tokens(network.concept(neighbor_id)))
    return tokens


class ExtendedLeskSimilarity:
    """Normalized extended gloss overlap between two concepts.

    Parameters
    ----------
    network:
        The semantic network providing glosses and relations.
    expand:
        When True (default) each concept's gloss is concatenated with the
        glosses of its direct neighbors (hypernyms, hyponyms, meronyms,
        ...), the "extended" part of extended Lesk.
    index:
        Optional :class:`repro.runtime.index.SemanticIndex` whose
        precomputed gloss bags replace the lazy per-instance token cache
        (only consulted when ``expand`` matches the index's bags, i.e.
        ``expand=True``).  Scores are identical either way.  A
        :class:`repro.runtime.pack.PackedIndex` routes the whole
        comparison through its interned-token kernel — the same greedy
        overlap over dense int ids with a disjoint-set quick reject —
        still bit-identical.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        expand: bool = True,
        index: "AnyIndex | None" = None,
    ):
        self._network = network
        self._expand = expand
        self._index = index if (index is not None and expand) else None
        self._packed = (
            self._index
            if getattr(self._index, "is_packed", False)
            else None
        )
        self._token_cache: dict[str, list[str]] = {}
        self._count_cache: dict[str, dict[str, int]] = {}
        self._gloss_memo = GlossTokenMemo()

    def _extended_gloss(self, concept_id: str) -> list[str]:
        if self._index is not None:
            return self._index.gloss_bag(concept_id)
        cached = self._token_cache.get(concept_id)
        if cached is not None:
            return cached
        tokens = extended_gloss_tokens(
            self._network, concept_id, expand=self._expand,
            memo=self._gloss_memo,
        )
        self._token_cache[concept_id] = tokens
        return tokens

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        if self._packed is not None:
            return self._packed.lesk_similarity(a, b)
        tokens_a = self._extended_gloss(a)
        tokens_b = self._extended_gloss(b)
        if not tokens_a or not tokens_b:
            return 0.0
        raw = _ngram_overlap_score(tokens_a, tokens_b)
        # Normalize so a full contiguous match of the shorter gloss maps
        # to 1.0.  Using sqrt(raw)/shorter rather than raw/shorter**2
        # keeps small-but-real overlaps (a few shared words) at a scale
        # comparable with the edge/node measures instead of vanishing
        # quadratically.
        shorter = min(len(tokens_a), len(tokens_b))
        if shorter <= 0:
            return 0.0
        return min(1.0, (raw ** 0.5) / shorter)

    def _token_counts(self, concept_id: str) -> dict[str, int]:
        cached = self._count_cache.get(concept_id)
        if cached is not None:
            return cached
        counts: dict[str, int] = {}
        for token in self._extended_gloss(concept_id):
            counts[token] = counts.get(token, 0) + 1
        self._count_cache[concept_id] = counts
        return counts

    def upper_bound(self, a: str, b: str) -> float:
        """Cheap exact upper bound on ``self(a, b)`` for pruning.

        The greedy overlap only ever matches tokens the two bags share,
        and removes matched runs from both sides, so the removed
        lengths sum to at most the multiset-intersection size ``m``;
        the raw score (a sum of squared run lengths) is then at most
        ``m**2``, and ``min(1, m/shorter)`` dominates the normalized
        score — exactly, in float arithmetic, because ``m**2`` is a
        perfect square and ``sqrt``/division/``min`` are monotone
        (see :meth:`repro.runtime.pack.PackedIndex.lesk_upper_bound`).
        """
        if a == b:
            return 1.0
        if self._packed is not None:
            return self._packed.lesk_upper_bound(a, b)
        counts_a = self._token_counts(a)
        counts_b = self._token_counts(b)
        if not counts_a or not counts_b:
            return 0.0
        shorter = min(
            len(self._extended_gloss(a)), len(self._extended_gloss(b))
        )
        if shorter <= 0:
            return 0.0
        if len(counts_a) > len(counts_b):
            counts_a, counts_b = counts_b, counts_a
        other_get = counts_b.get
        m = 0
        for token, count in counts_a.items():
            other = other_get(token)
            if other is not None:
                m += count if count < other else other
        return min(1.0, m / shorter)
