"""SemanticIndex correctness: indexed paths must be bit-identical.

The index is a pure accelerator — every query it serves and every
similarity score computed through it must *equal* (``==``, not
approximately) the value the uncached network walk produces, on both
the curated lexicon and a synthetic generated network.
"""

from __future__ import annotations

import random

import pytest

from repro.runtime import LRUCache, SemanticIndex
from repro.runtime.index import SemanticIndex as _SemanticIndex
from repro.semnet.ic import InformationContent
from repro.semnet.network import UnknownConceptError
from repro.similarity.combined import CombinedSimilarity, SimilarityWeights
from repro.similarity.edge import (
    LeacockChodorowSimilarity,
    PathSimilarity,
    WuPalmerSimilarity,
)
from repro.similarity.gloss import ExtendedLeskSimilarity
from repro.similarity.node import (
    JiangConrathSimilarity,
    LinSimilarity,
    ResnikSimilarity,
)


def _sample_pairs(network, n_pairs=250, seed=0):
    """Deterministic mix of random pairs and same-word sense pairs."""
    rng = random.Random(seed)
    ids = [concept.id for concept in network]
    pairs = [
        (rng.choice(ids), rng.choice(ids)) for _ in range(n_pairs)
    ]
    # Senses of one word are the pairs disambiguation actually compares.
    for word in sorted(network.words())[:40]:
        senses = [s.id for s in network.senses(word)]
        pairs.extend(
            (a, b) for a in senses[:4] for b in senses[:4]
        )
    return pairs


def _assert_identical_measures(network, index, pairs):
    ic = InformationContent(network)
    measures = [
        (WuPalmerSimilarity(network), WuPalmerSimilarity(network, index=index)),
        (PathSimilarity(network), PathSimilarity(network, index=index)),
        (
            LeacockChodorowSimilarity(network),
            LeacockChodorowSimilarity(network, index=index),
        ),
        (LinSimilarity(network, ic=ic), LinSimilarity(network, ic=ic, index=index)),
        (
            ResnikSimilarity(network, ic=ic),
            ResnikSimilarity(network, ic=ic, index=index),
        ),
        (
            JiangConrathSimilarity(network, ic=ic),
            JiangConrathSimilarity(network, ic=ic, index=index),
        ),
        (
            ExtendedLeskSimilarity(network),
            ExtendedLeskSimilarity(network, index=index),
        ),
        (
            CombinedSimilarity(network, ic=ic),
            CombinedSimilarity(network, ic=ic, index=index),
        ),
    ]
    for a, b in pairs:
        for slow, fast in measures:
            assert slow(a, b) == fast(a, b), (
                f"{type(slow).__name__} diverges on ({a}, {b})"
            )


class TestIndexedSimilarityIdentity:
    def test_curated_lexicon(self, lexicon, lexicon_index):
        _assert_identical_measures(
            lexicon, lexicon_index, _sample_pairs(lexicon)
        )

    def test_synthetic_network(self, synthetic_network):
        index = SemanticIndex(synthetic_network)
        _assert_identical_measures(
            synthetic_network, index, _sample_pairs(synthetic_network, seed=1)
        )

    def test_cached_combined_identity(self, lexicon, lexicon_index):
        """LRU-backed CombinedSimilarity equals the plain-dict one."""
        plain = CombinedSimilarity(lexicon)
        cached = CombinedSimilarity(
            lexicon, index=lexicon_index, cache=LRUCache(maxsize=512)
        )
        for a, b in _sample_pairs(lexicon, n_pairs=120, seed=2):
            assert plain(a, b) == cached(a, b)
            assert plain(a, b) == cached(a, b)  # repeat: served from LRU

    def test_weighted_mix_identity(self, lexicon, lexicon_index):
        weights = SimilarityWeights(0.6, 0.1, 0.3)
        plain = CombinedSimilarity(lexicon, weights=weights)
        fast = CombinedSimilarity(
            lexicon, weights=weights, index=lexicon_index
        )
        for a, b in _sample_pairs(lexicon, n_pairs=80, seed=3):
            assert plain(a, b) == fast(a, b)


class TestIndexQueries:
    def test_taxonomy_tables_match_network(self, lexicon, lexicon_index):
        for concept in list(lexicon)[:100]:
            cid = concept.id
            assert lexicon_index.depth(cid) == lexicon.depth(cid)
            assert (
                lexicon_index.hypernym_closure(cid)
                == lexicon.hypernym_closure(cid)
            )
        assert (
            lexicon_index.max_taxonomy_depth == lexicon.max_taxonomy_depth
        )

    def test_lcs_and_distance_match_network(self, lexicon, lexicon_index):
        for a, b in _sample_pairs(lexicon, n_pairs=150, seed=4):
            assert lexicon_index.lowest_common_subsumer(a, b) == \
                lexicon.lowest_common_subsumer(a, b)
            assert lexicon_index.taxonomic_distance(a, b) == \
                lexicon.taxonomic_distance(a, b)

    def test_gloss_bags_match_lazy_tokens(self, lexicon, lexicon_index):
        lesk = ExtendedLeskSimilarity(lexicon)
        for concept in list(lexicon)[:50]:
            assert (
                lexicon_index.gloss_bag(concept.id)
                == lesk._extended_gloss(concept.id)
            )

    def test_unknown_concept_raises(self, lexicon_index):
        with pytest.raises(UnknownConceptError):
            lexicon_index.depth("no.such.concept")
        with pytest.raises(UnknownConceptError):
            lexicon_index.hypernym_closure("no.such.concept")
        with pytest.raises(UnknownConceptError):
            lexicon_index.gloss_bag("no.such.concept")

    def test_gloss_disabled_index(self, synthetic_network):
        index = _SemanticIndex(synthetic_network, include_gloss=False)
        some_id = next(iter(synthetic_network)).id
        with pytest.raises(RuntimeError):
            index.gloss_bag(some_id)
        assert index.stats()["gloss_bags"] == 0

    def test_stats_shape(self, lexicon, lexicon_index):
        stats = lexicon_index.stats()
        assert stats["concepts"] == len(lexicon)
        assert stats["gloss_bags"] == len(lexicon)
        assert stats["ancestor_entries"] > stats["concepts"]
        assert stats["build_seconds"] >= 0
        # Counts are ints; build_seconds is a float and backing a
        # string.  The LCS memo is observable.
        assert stats["backing"] == "heap"
        for key, value in stats.items():
            if key not in ("build_seconds", "backing"):
                assert isinstance(value, int), key
        assert stats["lcs_memo_hits"] + stats["lcs_memo_misses"] >= 0

    def test_lcs_memo_counters_track_lookups(self, lexicon):
        index = SemanticIndex(lexicon, include_gloss=False)
        ids = [concept.id for concept in lexicon]
        a, b = ids[10], ids[20]
        index.lowest_common_subsumer(a, b)
        index.lowest_common_subsumer(a, b)
        stats = index.stats()
        assert stats["lcs_memo_misses"] == 1
        assert stats["lcs_memo_hits"] == 1


class TestGlossBuildMemo:
    """The index build tokenizes and stems each gloss once."""

    def test_each_gloss_is_tokenized_once_per_build(
        self, lexicon, monkeypatch
    ):
        from repro.semnet.concepts import Concept

        calls = []
        original = Concept.gloss_tokens

        def counting(self, *args, **kwargs):
            calls.append(self.id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Concept, "gloss_tokens", counting)
        SemanticIndex(lexicon)
        assert len(calls) == len(set(calls)) <= len(lexicon)

    def test_memoized_bags_equal_unmemoized(self, lexicon):
        from repro.linguistics.stemmer import stem

        index = SemanticIndex(lexicon)
        for concept in lexicon:
            expected = concept.gloss_tokens()
            for word in concept.words:
                expected.extend(stem(part) for part in word.split())
            for neighbor in lexicon.neighbors(concept.id):
                expected.extend(lexicon.concept(neighbor).gloss_tokens())
            assert index.gloss_bag(concept.id) == expected
